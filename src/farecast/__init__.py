"""Itinerary purchase prediction and revenue-management simulation toolkit.

Modules:

- ingest: CSV schemas for the six input datasets plus the sentiment lexicon
- sentiment: lexicon-based text scoring aggregated per airline
- features: competitive-pricing, schedule and airline-level feature assembly
- gbt: from-scratch gradient boosted trees (binary logistic objective)
- logit: logistic-regression baseline (IRLS)
- explain: additive per-prediction decomposition of ensemble output
- evaluate: TN-excluding confusion metrics and model comparison tables
- simulate: seat-inventory control simulation (EMSR-b, downsell replay)
- synth: synthetic data generator with planted behavioral archetypes
- cli: command-line orchestration
"""

__version__ = "0.1.0"
