"""Knowledge-graph retrieval toolkit.

End-to-end pieces for KG question answering: graph storage, candidate
reasoning-path pools, LLM-guided supervision refinement, trainable triple and
entity scorers, evidence-chain reorganization, evaluation metrics, and a
simulator for subset-search recovery over a hidden oracle set.
"""

__version__ = "0.1.0"
