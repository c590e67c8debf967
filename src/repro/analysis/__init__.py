"""Fleet-wide studies (§III-B): utilization distributions and savings."""
