"""trapkit: camera-trap metadata unification, splitting, and scoring.

The toolkit is organized around one immutable dataset model:

- :mod:`trapkit.ingest` parses and unifies partner metadata files
- :mod:`trapkit.taxonomy` resolves and rolls up the species ontology
- :mod:`trapkit.geosplit` produces leakage-free geographic train/eval folds
- :mod:`trapkit.stats` computes skew, blank-rate, burst, and weight diagnostics
- :mod:`trapkit.scoring` evaluates external classifier predictions
- :mod:`trapkit.cli` wires everything into deterministic batch subcommands
"""

from .errors import HeaderError, LabelNotFoundError, SplitError, TrapkitError
from .geosplit import RegionId, SplitAssignment, SplitConfig, assign_regions, export_split, leakage_check, region_id
from .ingest import (
    Deployment,
    ImageRecord,
    Source,
    UnifiedDataset,
    parse_deployments,
    parse_images,
    unify,
)
from .report import Issue, IssueKind, Severity, ValidationReport
from .scoring import (
    MetricsReport,
    PredictionRecord,
    RangeBox,
    evaluate,
    geofilter,
    iter_predictions,
    sequence_aggregate,
)
from .stats import (
    SequenceGroup,
    SkewReport,
    blank_rate,
    class_distribution,
    class_weights,
    group_bursts,
    labeling_effort,
    skew_report,
)
from .taxonomy import (
    Level,
    RolledLabel,
    TaxonRecord,
    TaxonomyTable,
    distinct_counts,
    parse_taxonomy,
    rollup,
)

__version__ = "0.1.0"
