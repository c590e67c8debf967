"""Algorithmic statistics substrate for the capacity-planning library.

Everything the paper's methodology leans on — ordinary least squares,
robust (RANSAC) regression, CART decision trees, k-means clustering,
cross-validation / ROC analysis, and descriptive statistics — is
implemented here from scratch on top of numpy so the rest of the library
has no dependency on scikit-learn or similar packages.
"""
