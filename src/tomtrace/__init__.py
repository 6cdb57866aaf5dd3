"""Perspective-aware mental-state tracking over plot-segmented narratives.

Subpackages cover the full pipeline: corpus ingestion, triple extraction,
the temporal knowledge graph, question generation and verification, the
evaluation harness, and fine-tune data emission.
"""

__version__ = "0.1.0"
