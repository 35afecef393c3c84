"""Top level acceptance checks, one test per shipped claim.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Each test prints a one line summary with the measured
numbers before asserting, so failures carry their evidence.

Criterion 8 is expected to fail. The bundled hand-worked tables contain
a sign slip in one row of the sixteen step table (see test_traces.py), so
the two printed final states are not entrywise equal. The test states the
target faithfully and reports the measured deviation instead of patching
the fixture. Criterion 9 optimizes the program recovered from that table;
the slip leaves it equal to the true short program times one loop phase,
which does not keep the optimizer from the 21 pi/4 target.
"""

import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

import catalog
import trace_fixtures as tf
from dynwalk.gate_compiler import _matching, _pairs, bit_value, compile_hadamard_layer
from dynwalk.graph_model import (
    DynamicGraph,
    Graph,
    TimedGraph,
    period,
)
from dynwalk.numerics import phase_distance
from dynwalk.rewrite_optimizer import (
    ScanFacts,
    _hypercube_sites,
    _merge_complementary,
    optimize,
)
from dynwalk.walk_engine import total_unitary

TOL = 1e-9

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {status}  {detail}")


def _angle(quarters):
    return Fraction(quarters, 4)


def _flip_pair(n_vertices, mask):
    return (
        TimedGraph(_matching(n_vertices, _pairs(n_vertices, mask)), Fraction(1, 2)),
        TimedGraph(Graph(n_vertices, loops=frozenset(range(n_vertices))), Fraction(3, 2)),
    )


def test_criterion_01_two_step_middle_bit_flip_is_exact():
    walk = DynamicGraph(8, _flip_pair(8, bit_value(1, 3)))
    target = np.kron(np.kron(I2, X), I2)
    deviation = np.abs(total_unitary(walk) - target).max()
    ok = deviation < TOL
    _report(1, ok, f"two step program vs middle bit flip, deviation {deviation:.3e}")
    assert ok


def test_criterion_02_double_flip_halves_to_one_transfer():
    walk = DynamicGraph(4, _flip_pair(4, 2) + _flip_pair(4, 1))
    assert walk.total_time() == Fraction(4, 1)
    final, report = optimize(walk)
    distance = phase_distance(total_unitary(final), total_unitary(walk))
    ok = (
        report.verified
        and final.graph_count <= 2
        and final.total_time() == Fraction(2, 1)
        and distance < TOL
    )
    _report(
        2,
        ok,
        f"4 graphs at 4π -> {final.graph_count} graphs at {final.total_time()}, "
        f"distance {distance:.3e}",
    )
    assert report.verified
    assert final.graph_count <= 2
    assert final.total_time() == Fraction(2, 1)
    assert distance < TOL


def test_criterion_03_complementary_merge_saves_a_half_pi():
    loops = lambda vs: Graph.make(2, loops=vs)
    walk = DynamicGraph(
        2,
        (
            TimedGraph(loops([1]), Fraction(3, 2)),
            TimedGraph(Graph.make(2, edges=[(0, 1)]), Fraction(1, 4)),
            TimedGraph(loops([0]), Fraction(1, 2)),
            TimedGraph(loops([1]), Fraction(1, 1)),
        ),
    )
    assert walk.total_time() == Fraction(13, 4)
    merged = walk.replaced(2, 4, _merge_complementary(*walk.steps[2:4]))
    expected = DynamicGraph(
        2,
        (
            TimedGraph(loops([1]), Fraction(3, 2)),
            TimedGraph(Graph.make(2, edges=[(0, 1)]), Fraction(1, 4)),
            TimedGraph(loops([0, 1]), Fraction(1, 2)),
            TimedGraph(loops([1]), Fraction(1, 2)),
        ),
    )
    saved = walk.total_time() - merged.total_time()
    distance = phase_distance(total_unitary(merged), total_unitary(walk))
    ok = merged == expected and saved == Fraction(1, 2) and distance < TOL
    _report(
        3,
        ok,
        f"tail merge {walk.total_time()} -> {merged.total_time()}, saved {saved}, "
        f"distance {distance:.3e}",
    )
    assert merged == expected
    assert merged.total_time() == Fraction(11, 4)
    assert saved == Fraction(1, 2)
    assert distance < TOL


def test_criterion_04_flip_with_phases_compacts_to_two_graphs():
    walk = DynamicGraph(
        4,
        (
            TimedGraph(_matching(4, _pairs(4, 2)), Fraction(1, 2)),
            TimedGraph(Graph.make(4, loops=[2, 3]), Fraction(1, 1)),
            TimedGraph(Graph.make(4, loops=[1, 3]), Fraction(1, 1)),
        ),
    )
    final, report = optimize(walk)
    distance = phase_distance(total_unitary(final), total_unitary(walk))
    ok = (
        report.verified
        and final.graph_count == 2
        and final.total_time() == Fraction(3, 2)
        and distance < TOL
    )
    _report(
        4,
        ok,
        f"3 graphs at {walk.total_time()} -> {final.graph_count} graphs at "
        f"{final.total_time()}, distance {distance:.3e}",
    )
    assert report.verified
    assert final.graph_count == 2
    assert final.total_time() == Fraction(3, 2)
    assert distance < TOL


def test_criterion_05_paired_hadamards_fit_five_graphs():
    layer = compile_hadamard_layer([0, 1], 2)
    target = np.kron(H, H)
    layer_distance = phase_distance(total_unitary(layer), target)

    def h_fixture(qubit):
        mask = bit_value(qubit, 2)
        phases = Graph(4, loops=frozenset(v for v in range(4) if v & mask))
        return (
            TimedGraph(phases, Fraction(3, 2)),
            TimedGraph(_matching(4, _pairs(4, mask)), Fraction(1, 4)),
            TimedGraph(phases, Fraction(3, 2)),
        )

    sequential = DynamicGraph(4, h_fixture(0) + h_fixture(1))
    assert sequential.total_time() == Fraction(13, 2)
    [(start, stop, layer_steps, _)] = _hypercube_sites(ScanFacts(sequential), 0)
    assert (start, stop) == (0, 6)
    rewritten = sequential.replaced(0, 6, layer_steps)
    rewrite_distance = phase_distance(
        total_unitary(rewritten), total_unitary(sequential)
    )

    bound = Fraction(5, 2)
    ok = (
        layer.graph_count <= 5
        and layer.total_time() <= bound
        and layer_distance < TOL
        and rewritten.graph_count <= 5
        and rewritten.total_time() <= bound
        and rewrite_distance < TOL
    )
    _report(
        5,
        ok,
        f"layer {layer.graph_count} graphs at {layer.total_time()} "
        f"(distance {layer_distance:.3e}); rewrite 6 graphs at 13π/2 -> "
        f"{rewritten.graph_count} at {rewritten.total_time()} "
        f"(distance {rewrite_distance:.3e})",
    )
    assert layer.graph_count <= 5
    assert layer.total_time() <= bound
    assert layer_distance < TOL
    assert rewritten.graph_count <= 5
    assert rewritten.total_time() <= bound
    assert rewrite_distance < TOL


def test_criterion_06_cube_walks_mix_uniformly():
    worst_prob = 0.0
    worst_law = 0.0
    for n in range(1, 5):
        size = 2**n
        edges = [
            (v, v ^ (1 << b)) for v in range(size) for b in range(n) if v < v ^ (1 << b)
        ]
        cube = Graph.make(size, edges=edges)
        weights = np.array([bin(v).count("1") for v in range(size)])

        mix = total_unitary(DynamicGraph(size, (TimedGraph(cube, Fraction(n, 4)),)))[:, 0]
        worst_prob = max(worst_prob, np.abs(np.abs(mix) ** 2 - 2.0**-n).max())

        for j in range(16 * n + 1):
            t = j * np.pi / 8
            amplitude = total_unitary(DynamicGraph(size, (TimedGraph(cube, Fraction(j, 8)),)))[:, 0]
            expected = (
                (-1j) ** weights
                * np.sin(t / n) ** weights
                * np.cos(t / n) ** (n - weights)
            )
            worst_law = max(worst_law, np.abs(amplitude - expected).max())
    ok = worst_prob < 1e-10 and worst_law < TOL
    _report(
        6,
        ok,
        f"uniform mixing deviation {worst_prob:.3e}, amplitude law deviation "
        f"{worst_law:.3e} (sizes 2..16)",
    )
    assert worst_prob < 1e-10
    assert worst_law < TOL


def test_criterion_07_six_fold_hadamard_layer_stays_flat():
    layer = compile_hadamard_layer(range(6), 6)
    walk_positions = [i for i, s in enumerate(layer.steps) if s.graph.edges]
    assert len(walk_positions) == 1
    walk_at = walk_positions[0]
    before = layer.steps[:walk_at]
    after = layer.steps[walk_at + 1 :]
    target = reduce(np.kron, [H] * 6)
    distance = phase_distance(total_unitary(layer), target)
    bound = Fraction(9, 2)
    ok = (
        len(before) <= 3
        and len(after) <= 3
        and layer.total_time() <= bound
        and distance < 1e-8
    )
    _report(
        7,
        ok,
        f"one walk graph, {len(before)}+{len(after)} phase graphs, total "
        f"{layer.total_time()}, distance {distance:.3e}",
    )
    assert len(before) <= 3
    assert len(after) <= 3
    assert all(not s.graph.edges for s in before + after)
    assert layer.total_time() <= bound
    assert distance < 1e-8


def test_criterion_08_printed_final_states_match_entrywise():
    deviation = np.abs(tf.LONG_TRACE[16] - tf.SHORT_TRACE[14]).max()
    ok = deviation <= 1e-12
    _report(
        8,
        ok,
        f"printed final states entrywise deviation {deviation:.3e} "
        "(known sign slip in row 4 of the long table)",
    )
    assert deviation <= 1e-12


def test_criterion_09_recovered_program_optimizes_to_target():
    recovered = catalog.reconstruct(tf.LONG_TRACE)
    assert recovered.barrier_count == 0
    assert len(recovered.steps) == 16
    assert recovered.total_time() == Fraction(67, 4)

    walk = recovered.program()
    final, report = optimize(walk)
    distance = phase_distance(total_unitary(final), total_unitary(walk))
    time_ok = final.total_time() <= Fraction(21, 4)
    ok = (
        report.verified
        and distance < TOL
        and final.graph_count <= 14
        and time_ok
    )
    _report(
        9,
        ok,
        f"recovered 16 graphs at 67π/4; optimized to {final.graph_count} graphs "
        f"at {final.total_time()}, distance {distance:.3e}; target time 21π/4 "
        f"{'met' if time_ok else 'not reached'}",
    )
    assert report.verified
    assert distance < TOL
    assert final.graph_count <= 14
    assert time_ok


def _random_step(rng, n_vertices):
    duration = _angle(rng.randint(1, 7))
    kind = rng.randrange(3)
    if kind == 0:
        count = rng.randint(1, n_vertices)
        loops = rng.sample(range(n_vertices), count)
        return TimedGraph(Graph.make(n_vertices, loops=loops), duration)
    if kind == 1:
        vertices = rng.sample(range(n_vertices), 2 * rng.randint(1, n_vertices // 2))
        pairs = [
            (vertices[i], vertices[i + 1]) for i in range(0, len(vertices), 2)
        ]
        return TimedGraph(Graph.make(n_vertices, edges=pairs), duration)
    max_edges = n_vertices * (n_vertices - 1) // 2
    edge_count = min(rng.randint(1, n_vertices), max_edges)
    edges = set()
    while len(edges) < edge_count:
        a, b = rng.sample(range(n_vertices), 2)
        edges.add((min(a, b), max(a, b)))
    return TimedGraph(Graph.make(n_vertices, edges=edges), duration)


def _plant(rng, n_vertices, steps, flavor):
    if flavor == 0:
        step = _random_step(rng, n_vertices)
        steps.extend([step, step])
    elif flavor == 1:
        mask_bits = n_vertices.bit_length() - 1
        mask_a = 1 << rng.randrange(mask_bits)
        mask_b = 1 << rng.randrange(mask_bits)
        steps.extend(_flip_pair(n_vertices, mask_a))
        steps.extend(_flip_pair(n_vertices, mask_b))
    elif flavor == 2:
        steps.append(
            TimedGraph(Graph.make(n_vertices, loops=[0]), _angle(rng.randint(1, 7)))
        )
        steps.append(
            TimedGraph(Graph.make(n_vertices, loops=[1]), _angle(rng.randint(1, 7)))
        )
    elif flavor == 3:
        steps.append(
            TimedGraph(Graph.make(n_vertices, edges=[(0, 1)]), Fraction(1, 2))
        )
        steps.append(
            TimedGraph(
                Graph.make(n_vertices, loops=range(n_vertices)), Fraction(1, 1)
            )
        )
        steps.append(
            TimedGraph(Graph.make(n_vertices, loops=[1]), _angle(rng.randint(1, 7)))
        )
    else:
        mask = 1 << rng.randrange(n_vertices.bit_length() - 1)
        phases = Graph(n_vertices, loops=frozenset(v for v in range(n_vertices) if v & mask))
        steps.append(TimedGraph(phases, Fraction(3, 2)))
        steps.append(TimedGraph(_matching(n_vertices, _pairs(n_vertices, mask)), Fraction(1, 4)))
        steps.append(TimedGraph(phases, Fraction(3, 2)))


def test_criterion_10_randomized_rewrites_preserve_the_walk():
    cases = 0
    worst_distance = 0.0
    worst_period = 0.0
    for seed in range(200):
        rng = random.Random(seed)
        n_vertices = rng.choice([2, 4, 8])
        steps = [_random_step(rng, n_vertices) for _ in range(rng.randint(3, 6))]
        _plant(rng, n_vertices, steps, seed % 5)
        walk = DynamicGraph(n_vertices, tuple(steps))

        final, report = optimize(walk)
        assert report.verified, f"seed {seed}: rejected {report.rejected}"
        distance = phase_distance(total_unitary(final), total_unitary(walk))
        worst_distance = max(worst_distance, distance)
        assert distance < TOL, f"seed {seed}: distance {distance}"
        before = (walk.total_time(), walk.graph_count)
        after = (final.total_time(), final.graph_count)
        assert after <= before, f"seed {seed}: cost went up"

        for step in walk.steps + final.steps:
            cycle = period(step.graph)
            if cycle is not None and cycle > 0:
                recurrence = np.abs(
                    total_unitary(DynamicGraph(n_vertices, (TimedGraph(step.graph, cycle),))) - np.eye(n_vertices)
                ).max()
                worst_period = max(worst_period, recurrence)
                assert recurrence < TOL, f"seed {seed}: period misses identity"
        cases += 1
    assert cases == 200
    ok = worst_distance < TOL and worst_period < TOL
    _report(
        10,
        ok,
        f"200 randomized programs optimized; worst distance {worst_distance:.3e}, "
        f"worst period recurrence {worst_period:.3e}",
    )
    assert ok
