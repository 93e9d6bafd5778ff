"""Link-level Monte-Carlo simulator for RIS-assisted, wave-powered maritime
IoT uplinks: sea-surface LoS geometry, maritime path-loss models, wave-energy
harvesting, two-stage LS channel estimation, SDP-based phase optimization,
and reproducible sweep tooling.
"""

__version__ = "0.1.0"
