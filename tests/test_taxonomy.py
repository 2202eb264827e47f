import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from trapkit.errors import HeaderError, LabelNotFoundError
from trapkit.report import IssueKind, Severity, ValidationReport
from trapkit.taxonomy import (
    Level,
    TaxonRecord,
    TaxonomyTable,
    distinct_counts,
    parse_taxonomy,
    rollup,
)

from generators import random_taxonomy
from oracles import lineage as oracle_lineage

HEADER = "label_id,class_name,order_name,family_name,genus_name,species_name,special_kind"


def parse(text):
    table, issues = parse_taxonomy(io.StringIO(text))
    return table, ValidationReport.from_issues(issues)


def test_level_is_totally_ordered_coarse_to_fine():
    assert Level.CLASS < Level.ORDER < Level.FAMILY < Level.GENUS < Level.SPECIES
    assert Level.from_name("species") is Level.SPECIES
    assert Level.from_name("Genus") is Level.GENUS
    with pytest.raises(ValueError):
        Level.from_name("kingdom")


def test_minimal_table_gets_synthetic_blank():
    table, report = parse(f"{HEADER}\nsp_x,Mammalia,Carnivora,Felidae,Panthera,Panthera onca,\n")
    assert len(table.records) == 2
    assert table.blank_label_id == "blank"
    assert table.records["blank"].special_kind == "blank"
    kinds = [issue.kind for issue in report.issues]
    assert kinds == [IssueKind.MISSING_FIELD]
    assert report.issues[0].severity is Severity.WARNING


def test_synthetic_blank_takes_an_id_no_input_label_holds():
    table, report = parse(f"{HEADER}\nblank,Mammalia,,,,,\n__blank__,Mammalia,Carnivora,,,,\n")
    assert table.records["blank"] == TaxonRecord("blank", "Mammalia")
    assert table.records["__blank__"] == TaxonRecord("__blank__", "Mammalia", "Carnivora")
    assert table.blank_label_id == "____blank____"
    assert table.records["____blank____"] == TaxonRecord("____blank____", special_kind="blank")
    assert [issue.key for issue in report.issues] == ["____blank____"]



def test_table_always_designates_an_unknown_id():
    table, _ = parse(f"{HEADER}\nsp_x,Mammalia,,,,,\nu1,,,,,,unknown\nu2,,,,,,unknown\n")
    assert table.unknown_label_id == "u1"
    table, _ = parse(f"{HEADER}\nsp_x,Mammalia,,,,,\n")
    assert table.unknown_label_id == "unknown"
    assert "unknown" not in table.records
    table, _ = parse(f"{HEADER}\nunknown,Mammalia,Carnivora,,,,\n")
    assert table.records["unknown"] == TaxonRecord("unknown", "Mammalia", "Carnivora")
    assert table.unknown_label_id == "__unknown__"
    assert "__unknown__" not in table.records

def test_same_genus_different_family_is_reported():
    table, report = parse(
        f"{HEADER}\n"
        "sp_a,Mammalia,Carnivora,Felidae,Panthera,Panthera onca,\n"
        "sp_b,Mammalia,Carnivora,Canidae,Panthera,Panthera leo,\n"
        "blank,,,,,,blank\n"
    )
    tree_issues = report.of_kind(IssueKind.TREE_INCONSISTENCY)
    assert len(tree_issues) == 1
    assert "Panthera" in tree_issues[0].detail


def test_fixture_parses_clean(taxonomy_table):
    assert len(taxonomy_table.records) == 12
    assert taxonomy_table.blank_label_id == "blank"
    assert taxonomy_table.unknown_label_id == "unknown"


def test_duplicate_label_id_keeps_first():
    table, report = parse(
        f"{HEADER}\n"
        "sp_a,Mammalia,Carnivora,Felidae,Panthera,Panthera onca,\n"
        "sp_a,Mammalia,Carnivora,Felidae,Panthera,Panthera leo,\n"
        "blank,,,,,,blank\n"
    )
    assert len(report.of_kind(IssueKind.DUPLICATE_ID)) == 1
    assert table.records["sp_a"].species_name == "Panthera onca"
    assert report.issues[0].detail == "row 3: duplicate label_id, first occurrence kept"


@pytest.mark.parametrize("label_id", ["sp a", "sp\ta", "sp\na", "sp\u2028a"],
                         ids=["space", "tab", "line_break", "line_separator"])
def test_label_id_with_whitespace_is_dropped(label_id):
    # a prediction line splits on whitespace, so such a label could never be read back
    table, report = parse(
        f"{HEADER}\n"
        f'"{label_id}",Mammalia,Carnivora,Felidae,Panthera,Panthera onca,\n'
        "blank,,,,,,blank\n"
    )
    assert list(table.records) == ["blank"]
    assert [(issue.kind, issue.key, issue.detail) for issue in report.issues] == [
        (IssueKind.MISSING_FIELD, label_id, "row 2: label_id contains whitespace"),
    ]


def test_malformed_header_is_fatal():
    with pytest.raises(HeaderError):
        parse("label,klass\nsp_a,Mammalia\n")


def test_special_label_with_names_is_stripped_and_flagged():
    table, report = parse(f"{HEADER}\nb1,Mammalia,,,,,blank\n")
    assert table.records["b1"].class_name is None
    assert len(report.of_kind(IssueKind.TREE_INCONSISTENCY)) == 1


def test_lineage_gap_is_flagged_and_prefix_survives():
    table, report = parse(f"{HEADER}\nsp_a,Mammalia,,Felidae,Panthera,,\nblank,,,,,,blank\n")
    assert len(report.of_kind(IssueKind.TREE_INCONSISTENCY)) == 1
    assert table.records["sp_a"].lineage() == ("Mammalia",)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.just(""), st.text(max_size=2)), min_size=5, max_size=5),
       st.sampled_from([None, "blank", "unknown"]))
def test_lineage_is_the_names_before_the_first_gap(names, special):
    # an empty name is a name: only None cuts the lineage
    record = TaxonRecord("x", *names, special)
    assert record.lineage() == oracle_lineage(record)
    assert type(record.lineage()) is tuple


def test_rollup_identity_at_finest_level(taxonomy_table):
    rolled = rollup("sp_panthera_onca", Level.SPECIES, taxonomy_table)
    assert rolled.name == "Panthera onca"
    assert rolled.level is Level.SPECIES


def test_rollup_blank_is_fixed_point_at_every_level(taxonomy_table):
    for level in Level:
        rolled = rollup("blank", level, taxonomy_table)
        assert rolled.special == "blank"
        assert rolled.name == "blank"
        assert rollup(rolled, level, taxonomy_table) == rolled


def test_rollup_below_finest_populated_keeps_coarser_level():
    table = TaxonomyTable(
        {
            "g_only": TaxonRecord("g_only", "Mammalia", "Carnivora", "Felidae", "Panthera"),
            "blank": TaxonRecord("blank", special_kind="blank"),
        },
        "blank",
        "unknown",
    )
    rolled = rollup("g_only", Level.SPECIES, table)
    assert rolled.name == "Panthera"
    assert rolled.level is Level.GENUS


def test_rollup_unresolvable_label_raises(taxonomy_table):
    with pytest.raises(LabelNotFoundError):
        rollup("sp_nope", Level.GENUS, taxonomy_table)
    with pytest.raises(LabelNotFoundError):
        taxonomy_table.resolve("sp_nope")


def test_rollup_all_ten_species_to_family_gives_three_names(taxonomy_table):
    species = [
        label for label, record in taxonomy_table.records.items()
        if record.special_kind is None
    ]
    assert len(species) == 10
    families = {rollup(label, Level.FAMILY, taxonomy_table).name for label in species}
    assert families == {"Felidae", "Canidae", "Lemuridae"}


def test_distinct_counts_on_fixture(taxonomy_table):
    counts = distinct_counts(taxonomy_table)
    assert set(counts) == {"Mammalia"}
    assert counts["Mammalia"][Level.ORDER] == 2
    assert counts["Mammalia"][Level.FAMILY] == 3
    assert counts["Mammalia"][Level.GENUS] == 4
    assert counts["Mammalia"][Level.SPECIES] == 10


def test_distinct_counts_only_special_labels_is_empty():
    table, report = parse(f"{HEADER}\nblank,,,,,,blank\nunknown,,,,,,unknown\n")
    assert report.issues == []
    assert distinct_counts(table) == {}


def test_distinct_counts_groups_each_class_apart():
    table, _ = parse(
        f"{HEADER}\n"
        "sp_a,Mammalia,Carnivora,Felidae,Panthera,Panthera onca,\n"
        "sp_b,Mammalia,Carnivora,Felidae,Panthera,Panthera leo,\n"
        "sp_c,Aves,Galliformes,Cracidae,Crax,Crax rubra,\n"
        "g_d,Aves,Galliformes,Cracidae,Penelope,,\n"
    )
    counts = distinct_counts(table)
    assert list(counts) == ["Aves", "Mammalia"]
    assert counts["Mammalia"][Level.CLASS] == 1
    assert counts["Mammalia"][Level.SPECIES] == 2
    assert counts["Aves"][Level.GENUS] == 2
    assert counts["Aves"][Level.SPECIES] == 1


@given(seed=st.integers(0, 10_000), level=st.sampled_from(list(Level)))
@settings(max_examples=60, deadline=None)
def test_rollup_idempotent_on_random_tables(seed, level):
    rng = random.Random(seed)
    table = random_taxonomy(rng, n_species=15, coarse_only_fraction=0.3)
    for label in table.records:
        once = rollup(label, level, table)
        assert rollup(once, level, table) == once


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_rollup_coarse_consistency_on_random_tables(seed):
    rng = random.Random(seed)
    table = random_taxonomy(rng, n_species=15, coarse_only_fraction=0.3)
    levels = list(Level)
    for label in table.records:
        for coarse_index in range(len(levels)):
            for fine_index in range(coarse_index, len(levels)):
                via_fine = rollup(rollup(label, levels[fine_index], table),
                                  levels[coarse_index], table)
                direct = rollup(label, levels[coarse_index], table)
                assert via_fine == direct


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_distinct_counts_nondecreasing_for_complete_tables(seed):
    rng = random.Random(seed)
    table = random_taxonomy(rng, n_species=30)
    for per_level in distinct_counts(table).values():
        assert (
            per_level[Level.ORDER]
            <= per_level[Level.FAMILY]
            <= per_level[Level.GENUS]
            <= per_level[Level.SPECIES]
        )
