"""Desk-scale lab for spatiotemporal fusion strategies.

Trains a gated dense video template network with variational DropPath,
then samples, evaluates, and ranks fusion strategies without retraining.
"""
