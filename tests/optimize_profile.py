"""Profile ``optimize`` over the digest corpus: each module's share of self time.

The script runs ``optimize`` on every program of ``corpus_digest.corpus()``
(seeds 0-299 and the three named programs, or the seed count given on the
command line) under cProfile, with the corpus built before profiling
starts. Building the corpus compiles and checks circuits, which fills the
package's ``lru_cache``s, so every one of them is emptied before each
``optimize`` call, with the profiler stopped: each call starts cold, as a
command-line call does and as ``perfbench/worker.run_pass`` has it before
each call. It prints a header with the program count, the profiled time and
the number of ``fractions.Fraction`` constructions (calls of
``Fraction.__new__``, which every ``Fraction`` operation that yields one
makes), then ``spectrum: D decompositions, L from edge lists, C
component searches, E eigh calls``, the profile's counts of calls of
``graph_model.spectrum`` (its cache misses), of the misses read by the
Python edge-list route (``_listed_stacks``, every graph below
``LISTED_VERTICES`` vertices) and of the ``components`` and ``eigh``
calls made under it, then
``forms: I from edge lists, F from block exponentials; commutation: J
from edge lists, K by walk counts``: F counts the calls of
``rewrite_optimizer._read_form`` and I the other calls of
``_phased_permutation`` (the classifier's memo misses); K counts the
walk counts ``walk_engine.graphs_commute`` made, half the calls of
``_arcs`` (each count reads both graphs' arcs), and J its other calls,
the pairs its rule on one graph's loops decided, then ``folds: bit-flip
row B built, M improving; fold row B built, M improving``: the COMBINE_PST
folds each of its two rows (``_combine_pst_sites`` and ``_fold_sites``)
built and how many of them strictly improve on their span by ``_gain``,
counted in a second, unprofiled pass over the corpus with each row
wrapped (both build exactly the folds they yield), then ``staircases:
layer A, fold B, loops-only run C, landing D; widest W vertices``: the
loop staircases ``gate_compiler._staircase`` built in that same pass for
each of its four callers (``compile_hadamard_layer``, ``_fold``,
``_staircase_sites`` and the loops-only branch of ``_singleton_landing``)
and the most vertices one build was handed, then ``work: scans F
full, R resumed, U follow-up, L last-resort; Hadamard fragments J
judged, D dense checks; prefix products P calls, S steps; singleton
moves M priced; enabling searches E, C candidates; run_distance V
calls``, counted in a third unprofiled pass (``work_counts``): the
``_scan`` calls of the regular rows without a window (F), with one from
``optimize`` (R) and from the enabling search (U), and those of the
last-resort rows (L); the fragments the Hadamard-layer row judged past
its ``LAYER_FLOOR`` check and the full ``circuit_distance`` checks among
them; the ``prefix_unitaries`` calls and the steps they applied; the
singleton moves ``_singleton_moves`` priced; the ``_find_enabling_pair``
calls and the neutral moves their move rows offered, of which those that
change the walk and are not skipped each get one follow-up scan (U); and
the ``run_distance`` calls, the span checks and the final checks. Then
it prints
one line per source file with its self time and share of
the total, largest first; functions built into the interpreter are
pooled as ``(built-in)``. ``fractions.py``'s line is printed whatever its
share, at 0 when no ``Fraction`` code ran. Under those lines it prints
the ten functions with the largest cumulative time, largest first, each
as ``file:line function: seconds s cumulative``. The file has no
``test_`` prefix, so pytest does not collect it.

Run from the repository root::

    python tests/optimize_profile.py        # the 603-program corpus
    python tests/optimize_profile.py 2      # seeds 0-1, 7 programs
"""

import cProfile
import os
import pstats
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import corpus_digest  # noqa: E402
from cli_overhead import package_caches  # noqa: E402
import dynwalk.gate_compiler as gate_compiler  # noqa: E402
import dynwalk.rewrite_optimizer as ro  # noqa: E402
from dynwalk.rewrite_optimizer import optimize  # noqa: E402

FRACTIONS = "fractions.py"
SPECTRUM = ("graph_model.py", "spectrum")
LISTED = ("graph_model.py", "_listed_stacks")
SEARCHED = ("graph_model.py", "_searched_stacks")
CLASSIFIER = ("rewrite_optimizer.py", "_phased_permutation")
FLOAT_FORM = ("rewrite_optimizer.py", "_read_form")
COMMUTE = ("walk_engine.py", "graphs_commute")
ARCS = ("walk_engine.py", "_arcs")
TOP = 10
# The callers of gate_compiler._staircase, by function name, and their labels.
STAIRCASE_CALLERS = {
    "compile_hadamard_layer": "layer",
    "_fold": "fold",
    "_staircase_sites": "loops-only run",
    "_singleton_landing": "landing",
}


def spectrum_counts(stats) -> tuple:
    """Calls of graph_model.spectrum, of its edge-list route, and of components and eigh under it, in a pstats table."""
    decompositions = listed = searches = eighs = 0
    for (filename, _, function), (_, calls, _, _, callers) in stats.items():
        own = (os.path.basename(filename), function)
        if own == SPECTRUM:
            decompositions += calls
        elif own == LISTED:
            listed += calls
        called_by = {(os.path.basename(caller), name): counts[1] for (caller, _, name), counts in callers.items()}
        if function == "components":
            searches += called_by.get(SEARCHED, 0)
        elif function == "eigh":
            eighs += called_by.get(SPECTRUM, 0)
    return decompositions, listed, searches, eighs


def route_counts(stats) -> tuple:
    """Classifier forms from edge lists and from block exponentials, and commutation tests from edge lists and by walk counts.

    A walk count reads both graphs' arcs, and ``_arcs`` has no other caller.
    """
    calls = Counter()
    for (filename, _, function), (_, count, *_) in stats.items():
        calls[os.path.basename(filename), function] += count
    floats, walk_counts = calls[FLOAT_FORM], calls[ARCS] // 2
    return calls[CLASSIFIER] - floats, floats, calls[COMMUTE] - walk_counts, walk_counts


def build_counts(walks) -> tuple:
    """What ``optimize`` built while it ran on the walks: folds per COMBINE_PST fold row, staircases per caller.

    Per fold row, the folds it built and how many strictly improve: each
    row is swapped, in the module's row tables, for a wrapper that prices
    every site it yields by ``_gain``. Per caller of ``_staircase``, named
    by the function that called it, the staircases built, and the most
    vertices one build was handed: both modules' bindings are swapped for
    a counting wrapper. Everything is put back afterwards.
    """
    counts = {name: Counter() for name in ("bit-flip row", "fold row")}
    staircases = Counter({name: 0 for name in STAIRCASE_CALLERS.values()})
    widest = 0
    real = gate_compiler._staircase

    def staircase(turns, den, n_vertices):
        nonlocal widest
        staircases[STAIRCASE_CALLERS[sys._getframe(1).f_code.co_name]] += 1
        widest = max(widest, len(turns))
        return real(turns, den, n_vertices)

    def counted(name, sites):
        def wrapper(facts, *args):
            for start, stop, replacement, note in sites(facts, *args):
                saved, _, removed = ro._gain(facts, start, stop, replacement)
                counts[name].update(built=1, improving=(saved, removed) > (0, 0))
                yield start, stop, replacement, note
        return wrapper

    wrapped = {
        ro._combine_pst_sites: counted("bit-flip row", ro._combine_pst_sites),
        ro._fold_sites: counted("fold row", ro._fold_sites),
    }
    tables = ro._REGULAR, ro._LAST_RESORT
    ro._REGULAR, ro._LAST_RESORT = (tuple((rule, wrapped.get(sites, sites)) for rule, sites in table) for table in tables)
    gate_compiler._staircase = ro._staircase = staircase
    try:
        for walk in walks:
            optimize(walk)
    finally:
        ro._REGULAR, ro._LAST_RESORT = tables
        gate_compiler._staircase = ro._staircase = real
    return counts, staircases, widest


def work_counts(walks) -> Counter:
    """What ``optimize`` did while it ran on the walks, counted by wrapping the module's functions.

    The scans are told apart by their rows, their window and their
    caller: a follow-up scan is the enabling search's. Everything is put
    back afterwards.
    """
    counts = Counter()
    names = ("_scan", "circuit_distance", "prefix_unitaries", "_singleton_moves", "_find_enabling_pair", "run_distance")
    real, real_costs, real_moves = {name: getattr(ro, name) for name in names}, ro.ScanFacts.costs_at_most, ro._MOVES
    last_resort = {sites for _, sites in ro._LAST_RESORT}

    def scan(facts, rows, skip, *args):
        if rows and rows[0][1] in last_resort:
            counts["last-resort"] += 1
        elif sys._getframe(1).f_code.co_name == "_find_enabling_pair":
            counts["follow-up"] += 1
        else:
            counts["resumed" if args and args[0] is not None else "full"] += 1
        return real["_scan"](facts, rows, skip, *args)

    def costs_at_most(facts, start, stop, cost):
        cheaper = real_costs(facts, start, stop, cost)
        counts["judged"] += cost is ro.LAYER_FLOOR and not cheaper
        return cheaper

    def circuit_distance(*args):
        counts["dense"] += 1
        return real["circuit_distance"](*args)

    def prefix_unitaries(n_vertices, steps, *args):
        counts.update(products=1, product_steps=len(steps))
        return real["prefix_unitaries"](n_vertices, steps, *args)

    def singleton_moves(*args, **kwargs):
        for move in real["_singleton_moves"](*args, **kwargs):
            counts["moves"] += 1
            yield move

    def find_enabling_pair(*args):
        counts["searches"] += 1
        return real["_find_enabling_pair"](*args)

    def run_distance(*args):
        counts["run_distance"] += 1
        return real["run_distance"](*args)

    def offered(sites):
        def wrapper(facts):
            for site in sites(facts):
                counts["candidates"] += 1
                yield site
        return wrapper

    wrappers = (scan, circuit_distance, prefix_unitaries, singleton_moves, find_enabling_pair, run_distance)
    for name, wrapper in zip(names, wrappers):
        setattr(ro, name, wrapper)
    ro.ScanFacts.costs_at_most = costs_at_most
    ro._MOVES = tuple((rule, offered(sites)) for rule, sites in real_moves)
    try:
        for walk in walks:
            optimize(walk)
    finally:
        for name, function in real.items():
            setattr(ro, name, function)
        ro.ScanFacts.costs_at_most = real_costs
        ro._MOVES = real_moves
    return counts


def main(argv=()) -> None:
    seeds = int(argv[0]) if argv else corpus_digest.SEEDS
    walks = [walk for _, walk in corpus_digest.corpus(seeds)]
    caches = package_caches()
    profile = cProfile.Profile()
    for walk in walks:
        for cache in caches:
            cache.cache_clear()
        profile.enable()
        optimize(walk)
        profile.disable()
    stats = pstats.Stats(profile).stats
    self_s: Counter = Counter({FRACTIONS: 0.0})
    constructions = 0
    for (filename, _, function), (_, calls, own, _, _) in stats.items():
        module = "(built-in)" if filename == "~" else os.path.basename(filename)
        self_s[module] += own
        if module == FRACTIONS and function == "__new__":
            constructions += calls
    total = sum(self_s.values())
    print(f"optimize over {len(walks)} programs: {total:.2f} s of self time, {constructions} Fraction constructions")
    decompositions, listed, searches, eighs = spectrum_counts(stats)
    print(
        f"spectrum: {decompositions} decompositions, {listed} from edge lists, "
        f"{searches} component searches, {eighs} eigh calls"
    )
    exact, floats, edge_lists, walk_counts = route_counts(stats)
    print(
        f"forms: {exact} from edge lists, {floats} from block exponentials; "
        f"commutation: {edge_lists} from edge lists, {walk_counts} by walk counts"
    )
    folds, staircases, widest = build_counts(walks)
    print("folds: " + "; ".join(f"{name} {c['built']} built, {c['improving']} improving" for name, c in folds.items()))
    print("staircases: " + ", ".join(f"{name} {count}" for name, count in staircases.items()) + f"; widest {widest} vertices")
    work = work_counts(walks)
    print(
        f"work: scans {work['full']} full, {work['resumed']} resumed, {work['follow-up']} follow-up,"
        f" {work['last-resort']} last-resort; Hadamard fragments {work['judged']} judged,"
        f" {work['dense']} dense checks; prefix products {work['products']} calls, {work['product_steps']} steps;"
        f" singleton moves {work['moves']} priced; enabling searches {work['searches']},"
        f" {work['candidates']} candidates; run_distance {work['run_distance']} calls"
    )
    for module, own in sorted(self_s.items(), key=lambda item: (-item[1], item[0])):
        print(f"{module}: {own:.3f} s, {100 * own / total:.1f} %")
    print(f"{TOP} functions by cumulative time:")
    for (filename, line, function), (_, _, _, cumulative, _) in sorted(
        stats.items(), key=lambda item: -item[1][3]
    )[:TOP]:
        module = "(built-in)" if filename == "~" else os.path.basename(filename)
        print(f"{module}:{line} {function}: {cumulative:.3f} s cumulative")


if __name__ == "__main__":
    main(sys.argv[1:])
