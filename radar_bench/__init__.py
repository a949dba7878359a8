"""End-to-end and per-layer benchmark of the RADAR fleet verifier (see README.md)."""
