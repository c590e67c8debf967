"""Workload substrate: diurnal demand, request mixes, traces, synthetics.

Replaces the proprietary production traffic of the paper with
generators that reproduce its load-bearing properties: diurnal cycles
with regional phase offsets, weekly modulation, request-class mixes
with heterogeneous processing costs, and the reproducible synthetic
workloads of methodology Step 3.
"""
