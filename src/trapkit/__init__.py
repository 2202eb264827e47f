"""trapkit: camera-trap metadata unification, splitting, and scoring.

The toolkit is organized around one immutable dataset model:

- :mod:`trapkit.ingest` parses and unifies partner metadata files
- :mod:`trapkit.taxonomy` resolves and rolls up the species ontology
- :mod:`trapkit.geosplit` produces leakage-free geographic train/eval folds
- :mod:`trapkit.stats` computes skew, blank-rate, burst, and weight diagnostics
- :mod:`trapkit.scoring` evaluates external classifier predictions
- :mod:`trapkit.cli` wires everything into deterministic batch subcommands
"""

__version__ = "0.1.0"
