import pytest
from hypothesis import given, settings

from twosc.canon import are_isomorphic
from twosc.core import Graph, has_triangle
from twosc.gcb import (
    GcbSpec,
    InvalidGcbSpecError,
    PRINTED,
    SYMMETRIC,
    SampleBudgetError,
    assemble,
    build_gcb,
    decompose_triangle_free,
    expected_edge_count,
    sample_gcb_spec,
    validate_gcb_spec,
)
from twosc.graphs import (
    complete_bipartite,
    cycle_graph,
    minimal_with_triangle,
    path_graph,
    petersen_graph,
    capped_k33,
)
from twosc.recognition import NotTwoSelfCenteredError, condition_verdict
from twosc.sbic import HasTriangleError, SbicWitness, verify_sbic

from conftest import triangle_free_two_sc_graphs


def empty_spec(k: int, l: int) -> GcbSpec:
    return GcbSpec(k, l, Graph(()), SbicWitness((), ()))


class TestValidate:
    def test_plain_bipartite_passes(self):
        assert validate_gcb_spec(empty_spec(2, 2)).passed

    def test_empty_core_needs_big_sides(self):
        validation = validate_gcb_spec(empty_spec(0, 0))
        assert not validation.passed
        assert not validation.empty_core_iff_no_connectors.ok

    def test_singleton_core(self):
        spec = GcbSpec(1, 1, Graph((0,)), SbicWitness((1,), (1,)))
        validation = validate_gcb_spec(spec)
        assert validation.passed
        assert validation.empty_family_sides.ok
        assert validation.singleton_core_needs_side.ok
        # with both sides empty the singleton-core rule rejects it
        bare = GcbSpec(0, 0, Graph((0,)), SbicWitness((1,), (1,)))
        assert not validate_gcb_spec(bare).singleton_core_needs_side.ok

    def test_no_connectors_on_nonempty_core_fails(self):
        spec = GcbSpec(2, 2, Graph((0,)), SbicWitness((), ()))
        validation = validate_gcb_spec(spec)
        assert not validation.passed

    def test_readings_must_be_known(self):
        with pytest.raises(ValueError):
            validate_gcb_spec(empty_spec(2, 2), zero_l_reading="other")


class TestBuild:
    def test_complete_bipartite(self):
        assert build_gcb(empty_spec(2, 3)) == complete_bipartite(2, 3)

    def test_four_cycle(self):
        assert are_isomorphic(build_gcb(empty_spec(2, 2)), cycle_graph(4))

    def test_singleton_core_builds_five_cycle(self):
        spec = GcbSpec(1, 1, Graph((0,)), SbicWitness((1,), (1,)))
        assert are_isomorphic(build_gcb(spec), cycle_graph(5))

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidGcbSpecError):
            build_gcb(empty_spec(1, 3))

    def test_edge_count_formula(self):
        for spec in (empty_spec(2, 3), GcbSpec(1, 1, Graph((0,)), SbicWitness((1,), (1,)))):
            assert build_gcb(spec).edge_count == expected_edge_count(spec)


class TestDecompose:
    def test_complete_bipartite(self):
        spec, roles = decompose_triangle_free(complete_bipartite(2, 3))
        assert {spec.k, spec.l} == {2, 3}
        assert spec.x.n == 0 and spec.r == 0 and spec.s == 0
        assert assemble(spec) == complete_bipartite(2, 3).relabel(roles.order)

    def test_four_cycle(self):
        g = cycle_graph(4)
        spec, roles = decompose_triangle_free(g)
        assert assemble(spec) == g.relabel(roles.order)

    def test_capped_bipartite_has_core(self):
        g = capped_k33()
        spec, roles = decompose_triangle_free(g)
        assert spec.x.n > 0
        assert assemble(spec) == g.relabel(roles.order)
        assert validate_gcb_spec(spec, PRINTED).passed

    def test_petersen_round_trip(self):
        pet = petersen_graph()
        spec, roles = decompose_triangle_free(pet)
        rebuilt = assemble(spec)
        assert rebuilt == pet.relabel(roles.order)
        assert are_isomorphic(rebuilt, pet)

    def test_petersen_separates_zero_l_readings(self):
        # The canonical peeling of the Petersen graph has an empty L side,
        # and its witness satisfies only the symmetric reading of the
        # zero-l rule: the as-printed one re-checks the first family and
        # fails, although the graph is a valid decomposition target.
        spec, _ = decompose_triangle_free(petersen_graph())
        assert spec.l == 0
        assert not validate_gcb_spec(spec, PRINTED).passed
        assert validate_gcb_spec(spec, SYMMETRIC).passed

    def test_witness_properties(self):
        for g in (capped_k33(), petersen_graph(), cycle_graph(5)):
            spec, roles = decompose_triangle_free(g)
            report = verify_sbic(spec.x, spec.witness)
            assert report.passed
            covered_a = 0
            for m in spec.witness.a_masks:
                covered_a |= m
            covered_b = 0
            for m in spec.witness.b_masks:
                covered_b |= m
            if spec.x.n:
                assert covered_a == covered_b == spec.x.full_mask

    @settings(max_examples=150, deadline=None)
    @given(triangle_free_two_sc_graphs(max_n=14))
    def test_round_trip_on_random_graphs(self, g):
        # beyond the exhaustive n <= 8 of the battery and criterion 6
        assert g.two_sc and not has_triangle(g)
        spec, roles = decompose_triangle_free(g)
        assert verify_sbic(spec.x, spec.witness).passed
        assert assemble(spec) == g.relabel(roles.order)

    def test_requires_triangle_free(self):
        with pytest.raises(HasTriangleError):
            decompose_triangle_free(minimal_with_triangle())

    def test_requires_two_self_centered(self):
        with pytest.raises(NotTwoSelfCenteredError):
            decompose_triangle_free(path_graph(4))


class TestSample:
    def test_smallest_budget_forces_four_cycle(self):
        for seed in range(5):
            spec = sample_gcb_spec(4, seed)
            assert (spec.k, spec.l, spec.x.n) == (2, 2, 0)
            assert are_isomorphic(build_gcb(spec), cycle_graph(4))

    def test_budget_too_small(self):
        with pytest.raises(SampleBudgetError):
            sample_gcb_spec(3, 0)

    def test_deterministic_per_seed(self):
        assert sample_gcb_spec(10, 42) == sample_gcb_spec(10, 42)

    def test_samples_build_valid_graphs(self):
        for seed in range(50):
            spec = sample_gcb_spec(10, seed)
            assert spec.total_vertices <= 10
            g = build_gcb(spec)
            assert not has_triangle(g)
            assert condition_verdict(g).is_2sc
            assert g.edge_count == expected_edge_count(spec)


class TestSerialization:
    def test_spec_json_round_trip(self):
        spec, roles = decompose_triangle_free(capped_k33())
        doc = spec.to_json()
        doc["roles"] = roles.to_json()
        again = GcbSpec.from_json(doc)
        assert again == spec
        assert assemble(again) == assemble(spec)
