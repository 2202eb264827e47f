"""Five-level species ontology: label resolution and rollup.

Labels live in a table keyed by an opaque string id. Each record carries
names for the levels class, order, family, genus, species, populated
contiguously from class downward; a record may stop early (a genus-only
label is legal). Two special labels sit outside the tree: ``blank``
(no animal present) and ``unknown``. Both are first-class labels so that
downstream counting and scoring can treat them like any other class.

Rolling a label up to a coarser level truncates its lineage. Rolling a
coarse-only label "down" cannot invent detail, so the result keeps the
finest populated name, and its level is coarser than the one requested.
"""

from __future__ import annotations

from enum import IntEnum
from typing import IO, Iterable, NamedTuple, Union

from ._util import id_rejected, read_rows, record_issue
from .errors import LabelNotFoundError
from .report import Issue, IssueKind, Severity

BLANK = "blank"
UNKNOWN = "unknown"

TAXONOMY_COLUMNS = [
    "label_id",
    "class_name",
    "order_name",
    "family_name",
    "genus_name",
    "species_name",
    "special_kind",
]


class Level(IntEnum):
    """Taxonomic levels ordered coarse to fine."""

    CLASS = 0
    ORDER = 1
    FAMILY = 2
    GENUS = 3
    SPECIES = 4

    @classmethod
    def from_name(cls, name: str) -> "Level":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown taxonomic level: {name!r}") from None


class TaxonRecord(NamedTuple):
    label_id: str
    class_name: str | None = None
    order_name: str | None = None
    family_name: str | None = None
    genus_name: str | None = None
    species_name: str | None = None
    special_kind: str | None = None

    def lineage(self) -> tuple[str, ...]:
        """Contiguous run of names from class downward.

        Names after a gap are ignored; the gap itself is reported at parse
        time as a tree inconsistency.
        """
        names = self[1:6]
        return names[:names.index(None)] if None in names else names


class RolledLabel(NamedTuple):
    """A label projected onto one taxonomic level.

    ``names`` holds the lineage from class down to ``level``. For special
    labels ``names`` is the designated label id and ``level`` is None.
    When the requested level was finer than the record's finest populated
    name, ``level`` is that name's level, coarser than the one requested.
    """

    names: tuple[str, ...]
    level: Level | None
    special: str | None = None

    @property
    def name(self) -> str:
        return self.names[-1]


class TaxonomyTable:
    def __init__(self, records: dict[str, TaxonRecord], blank_label_id: str,
                 unknown_label_id: str | None = None):
        self.records = records
        self.blank_label_id = blank_label_id
        self.unknown_label_id = unknown_label_id

    def resolve(self, label_id: str) -> TaxonRecord:
        try:
            return self.records[label_id]
        except KeyError:
            raise LabelNotFoundError(f"label id {label_id!r} not in taxonomy") from None


def parse_taxonomy(stream: IO[str]) -> tuple[TaxonomyTable, list[Issue]]:
    """Read `taxonomy.csv` rows into a table, reporting structural defects.

    A label id holding whitespace is dropped, as prediction lines split on
    it. Duplicate label ids keep the first occurrence. A missing blank label is
    synthesized so the table always designates one. Lineage gaps, special
    labels carrying taxonomic names, and cross-record ancestry conflicts are
    reported as warnings and do not abort the parse.
    """
    records: dict[str, TaxonRecord] = {}
    issues: list[Issue] = []
    blank_id: str | None = None
    unknown_id: str | None = None

    for row_number, row in read_rows(stream, TAXONOMY_COLUMNS, "taxonomy", issues):
        label_id, *names, special = row
        if not label_id:
            issues.append(record_issue(IssueKind.MISSING_FIELD, label_id, row_number,
                                       "empty label_id"))
            continue
        if id_rejected("label_id", label_id, row_number, records, issues):
            continue

        if special and special not in (BLANK, UNKNOWN):
            issues.append(record_issue(IssueKind.MISSING_FIELD, label_id, row_number,
                                       f"unrecognized special_kind {special!r}"))
            continue

        if special:
            if any(names):
                issues.append(record_issue(
                    IssueKind.TREE_INCONSISTENCY, label_id, row_number,
                    "special label carries taxonomic names, ignored", Severity.WARNING,
                ))
            record = TaxonRecord(label_id, special_kind=special)
            if special == BLANK and blank_id is None:
                blank_id = label_id
            if special == UNKNOWN and unknown_id is None:
                unknown_id = label_id
        else:
            fields = [name or None for name in names]
            if fields[0] is None:
                issues.append(record_issue(IssueKind.MISSING_FIELD, label_id, row_number,
                                           "non-special label without class_name"))
                continue
            record = TaxonRecord(label_id, *fields)
            if len(record.lineage()) < len(fields) - fields.count(None):
                issues.append(record_issue(
                    IssueKind.TREE_INCONSISTENCY, label_id, row_number,
                    "names do not populate contiguously from class", Severity.WARNING,
                ))
        records[label_id] = record

    if blank_id is None:
        blank_id = free_label_id(BLANK, records)
        records[blank_id] = TaxonRecord(blank_id, special_kind=BLANK)
        issues.append(Issue(
            IssueKind.MISSING_FIELD,
            blank_id,
            "no blank label in input, synthetic blank label added",
            Severity.WARNING,
        ))

    issues.extend(_tree_consistency_issues(records.values()))
    table = TaxonomyTable(records, blank_id, unknown_id)
    return table, issues


def free_label_id(base: str, records: dict[str, TaxonRecord]) -> str:
    """The id a synthetic label takes, so it never names a label of ``records``.

    That is ``base``, or ``__base__`` when ``base`` is taken, then ``____base____``, and so on.
    """
    while base in records:
        base = f"__{base}__"
    return base


def _tree_consistency_issues(records: Iterable[TaxonRecord]) -> list[Issue]:
    # Within one class, a name at any level must have a single ancestry.
    seen: dict[tuple[int, str, str], tuple[str, tuple[str, ...]]] = {}
    issues: list[Issue] = []
    flagged: set[tuple[int, str, str]] = set()
    for record in records:
        if record.special_kind:
            continue
        lineage = record.lineage()
        for depth in range(1, len(lineage)):
            key = (depth, lineage[0], lineage[depth])
            ancestry = lineage[:depth]
            if key not in seen:
                seen[key] = (record.label_id, ancestry)
            elif seen[key][1] != ancestry and key not in flagged:
                flagged.add(key)
                first_id, first_ancestry = seen[key]
                issues.append(Issue(
                    IssueKind.TREE_INCONSISTENCY,
                    record.label_id,
                    f"{Level(depth).name.lower()} {lineage[depth]!r} has ancestry "
                    f"{'/'.join(ancestry)} but {'/'.join(first_ancestry)} in {first_id}",
                    Severity.WARNING,
                ))
    return issues


def rollup(label: Union[str, RolledLabel], level: Level, table: TaxonomyTable) -> RolledLabel:
    """Project a label id (or an already rolled label) onto a level.

    Blank and unknown labels are fixed points at every level and come back
    canonicalized to the table's designated id for their kind.
    """
    level = Level(level)
    if isinstance(label, RolledLabel):
        if label.special is not None:
            return label
        if level < label.level:
            return RolledLabel(label.names[: level + 1], level)
        return label

    record = table.resolve(label)
    if record.special_kind is not None:
        designated = (
            table.blank_label_id
            if record.special_kind == BLANK
            else (table.unknown_label_id or record.label_id)
        )
        return RolledLabel((designated,), None, special=record.special_kind)
    lineage = record.lineage()
    finest = len(lineage) - 1
    take = min(level, finest)
    return RolledLabel(lineage[: take + 1], Level(take))


def distinct_counts(table: TaxonomyTable) -> dict[str, dict[Level, int]]:
    """Distinct taxonomic names per level in every label of ``table``, grouped by class.

    Blank and unknown labels never contribute.
    """
    names: dict[str, dict[Level, set[str]]] = {}
    for record in table.records.values():
        if record.special_kind:
            continue
        lineage = record.lineage()
        if not lineage:
            continue
        per_level = names.setdefault(lineage[0], {level: set() for level in Level})
        for level, name in zip(Level, lineage):
            per_level[level].add(name)

    return {
        group: {level: len(values) for level, values in per_level.items()}
        for group, per_level in sorted(names.items())
    }
