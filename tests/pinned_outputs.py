"""Exact optimizer outputs on seeded random inputs.

For each seed of ``random_circuit`` (compiled) and of ``random_walk`` in
``test_rewrite_optimizer``: the output steps as (edges, loops, pi_num,
pi_den) and the (rule, start, stop) of every rewrite record. Scan order,
tie-breaks and the enabling search decide which of several equally cheap
programs ``optimize`` returns, so these pin what the driver finds while
the way it searches changes. Every one of these programs needs at least
one cost-neutral enabling move.
"""

PINNED_CIRCUITS = {
    1: (
        (
            ([(0, 2), (1, 3)], [4, 5, 6, 7], 1, 2),
            ([(2, 3), (6, 7)], [], 1, 2),
            ([], [2, 3, 6, 7], 1, 1),
            ([(0, 2), (1, 3), (4, 6), (5, 7)], [], 1, 4),
            ([(2, 3), (4, 5)], [], 1, 2),
            ([], [4, 5], 1, 4),
            ([], [2, 3, 4, 5], 1, 4),
            ([], [2, 3, 4, 5, 6, 7], 1, 4),
            ([(0, 2), (1, 3), (4, 6), (5, 7)], [], 1, 4),
            ([], [0, 4], 1, 2),
            ([], [0, 2, 4, 6], 1, 2),
            ([], [0, 1, 2, 4, 5, 6], 1, 2),
        ),
        (
            ("MERGE_COMPLEMENTARY", 5, 7), ("MERGE_IDENTICAL", 10, 12), ("MOVE_SINGLETON", 12, 15),
            ("COMBINE_PST", 0, 4), ("COMBINE_PST", 1, 4), ("COMBINE_PST", 5, 13),
            ("SWAP_COMMUTING", 1, 3), ("MERGE_COMPLEMENTARY", 0, 2), ("SWAP_COMMUTING", 8, 10),
            ("MOVE_SINGLETON", 9, 12),
        ),
    ),
    3: (
        (
            ([], [5, 7], 1, 2),
            ([], [1, 3, 4, 5, 6, 7], 1, 2),
            ([(2, 3), (6, 7)], [4, 5], 1, 4),
            ([(2, 3), (6, 7)], [], 1, 4),
            ([(0, 1), (2, 3), (4, 5), (6, 7)], [], 1, 2),
            ([(1, 3), (5, 7)], [], 1, 2),
            ([], [1, 2], 5, 4),
            ([], [1, 2, 4, 7], 1, 4),
        ),
        (
            ("MOVE_SINGLETON", 0, 5), ("MOVE_SINGLETON", 4, 6), ("MERGE_COMPLEMENTARY", 3, 5),
            ("MERGE_IDENTICAL", 8, 10), ("COMBINE_PST", 5, 9), ("COMBINE_PST", 6, 12),
            ("SWAP_COMMUTING", 1, 7), ("MOVE_SINGLETON", 6, 9),
        ),
    ),
    6: (
        (
            ([(0, 4), (1, 5)], [2, 3, 6, 7], 1, 2),
            ([], [0, 2, 4, 6], 1, 2),
            ([(0, 1), (2, 3), (4, 5), (6, 7)], [], 1, 4),
            ([(4, 6), (5, 7)], [], 1, 2),
            ([], [2, 6], 1, 2),
            ([], [0, 2, 3, 4, 6, 7], 1, 2),
            ([(0, 2), (1, 3), (4, 6), (5, 7)], [], 1, 4),
            ([], [0, 2, 3, 4, 6, 7], 1, 2),
            ([], [3, 7], 3, 4),
            ([], [0, 3, 4, 7], 1, 4),
            ([], [0, 1, 3, 4, 5, 7], 1, 4),
        ),
        (
            ("MOVE_SINGLETON", 3, 5), ("HYPERCUBE_HADAMARD", 3, 6), ("MERGE_COMPLEMENTARY", 5, 7),
            ("MOVE_SINGLETON", 5, 8), ("MERGE_IDENTICAL", 8, 10), ("MOVE_SINGLETON", 11, 13),
            ("COMBINE_PST", 0, 3), ("MERGE_COMPLEMENTARY", 0, 2), ("COMBINE_PST", 3, 8),
            ("SWAP_COMMUTING", 5, 8), ("MERGE_COMPLEMENTARY", 7, 9),
        ),
    ),
    16: (
        (
            ([(0, 6), (1, 7), (2, 4), (3, 5), (8, 14), (9, 15), (10, 12), (11, 13)], [], 1, 2),
            ([], [0, 1, 14, 15], 1, 2),
            ([], [0, 1, 2, 3, 8, 9, 14, 15], 1, 2),
            ([], [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 14, 15], 1, 2),
            ([(0, 4), (1, 5), (2, 6), (3, 7), (8, 12), (9, 13), (10, 14), (11, 15)], [], 1, 4),
            ([], [0, 1, 2, 3, 8, 9, 10, 11], 1, 2),
            ([(0, 2), (1, 3), (4, 6), (5, 7), (8, 10), (9, 11), (12, 14), (13, 15)], [], 1, 4),
            ([], [0, 1, 4, 5, 8, 9, 12, 13], 1, 2),
        ),
        (
            ("MOVE_SINGLETON", 0, 4), ("MOVE_SINGLETON", 6, 9), ("COMBINE_PST", 0, 9),
            ("SWAP_COMMUTING", 4, 7), ("MOVE_SINGLETON", 1, 5),
        ),
    ),
    26: (
        (
            ([(0, 3), (1, 2), (4, 7), (5, 6)], [], 1, 2),
            ([(0, 1), (2, 3), (4, 5), (6, 7)], [], 1, 4),
            ([], [0, 3, 5, 6], 1, 2),
            ([], [0, 1, 3, 4, 6, 7], 1, 1),
            ([(0, 2), (1, 3), (4, 6), (5, 7)], [], 1, 4),
            ([], [0, 1, 4, 5], 1, 2),
        ),
        (
            ("MOVE_SINGLETON", 0, 2), ("MOVE_SINGLETON", 6, 8), ("HYPERCUBE_HADAMARD", 6, 9),
            ("MOVE_SINGLETON", 8, 11), ("COMBINE_PST", 0, 7), ("SWAP_COMMUTING", 4, 6),
            ("MOVE_SINGLETON", 5, 11), ("SWAP_COMMUTING", 3, 5), ("MOVE_SINGLETON", 4, 10),
            ("SWAP_COMMUTING", 2, 4), ("MERGE_COMPLEMENTARY", 3, 5), ("MOVE_SINGLETON", 3, 9),
            ("SWAP_COMMUTING", 1, 3), ("MOVE_SINGLETON", 2, 8), ("MOVE_SINGLETON", 2, 5),
            ("MERGE_IDENTICAL", 3, 5),
        ),
    ),
}
PINNED_WALKS = {
    6: (
        (
            ([], [0, 1, 2, 4, 5, 6], 1, 2),
            ([(1, 3), (2, 6)], [0, 2, 5, 7], 1, 2),
            ([], [0, 1, 2, 4, 5, 6], 1, 2),
            ([], [1], 1, 4),
            ([], [0, 1, 2, 3, 4, 5], 1, 4),
            ([], [0, 1, 2, 3, 4, 5, 6], 1, 2),
            ([(0, 3), (2, 4), (5, 7)], [1, 3, 4, 7], 1, 4),
            ([(1, 3), (2, 6), (5, 7)], [4, 5, 7], 1, 1),
        ),
        (
            ("MERGE_COMPLEMENTARY", 0, 2), ("MOVE_SINGLETON", 0, 3), ("MERGE_COMPLEMENTARY", 4, 6),
            ("SWAP_COMMUTING", 2, 4), ("MOVE_SINGLETON", 3, 6), ("SWAP_COMMUTING", 2, 4),
            ("MOVE_SINGLETON", 0, 3), ("SWAP_COMMUTING", 0, 4), ("MERGE_COMPLEMENTARY", 3, 5),
            ("MOVE_SINGLETON", 0, 5), ("MERGE_IDENTICAL", 0, 2),
        ),
    ),
    16: (
        (
            ([], [0], 1, 2),
            ([(0, 2), (1, 3)], [3], 1, 2),
            ([], [1, 2], 1, 1),
            ([(0, 1), (2, 3)], [0, 1, 3], 3, 4),
            ([], [0], 3, 2),
        ),
        (
            ("MERGE_COMPLEMENTARY", 0, 2), ("COMBINE_PST", 0, 3), ("SWAP_COMMUTING", 1, 3),
            ("MOVE_SINGLETON", 2, 4),
        ),
    ),
    22: (
        (
            ([], [1, 2], 5, 4),
            ([(0, 1)], [0, 1], 3, 2),
            ([], [1], 1, 2),
        ),
        (
            ("MERGE_COMPLEMENTARY", 0, 2), ("MOVE_SINGLETON", 3, 5), ("SWAP_COMMUTING", 2, 5),
            ("MOVE_SINGLETON", 0, 3), ("SWAP_COMMUTING", 1, 3), ("MOVE_SINGLETON", 2, 5),
            ("SWAP_COMMUTING", 1, 4), ("MOVE_SINGLETON", 0, 2),
        ),
    ),
    74: (
        (
            ([], [0, 1, 3, 6, 7], 3, 4),
            ([], [0, 1, 3, 4, 5, 7], 1, 4),
            ([(0, 1), (4, 7)], [6, 7], 3, 2),
            ([], [0, 1, 3, 4, 6], 1, 2),
            ([(1, 7), (2, 4)], [1, 3, 4, 5, 7], 1, 1),
        ),
        (
            ("MOVE_SINGLETON", 0, 3), ("MERGE_COMPLEMENTARY", 4, 6), ("SWAP_COMMUTING", 3, 5),
            ("MOVE_SINGLETON", 2, 4), ("SWAP_COMMUTING", 5, 7), ("MOVE_SINGLETON", 2, 6),
            ("SWAP_COMMUTING", 1, 5), ("MOVE_SINGLETON", 0, 2), ("MOVE_SINGLETON", 1, 4),
            ("MERGE_IDENTICAL", 3, 5),
        ),
    ),
    81: (
        (
            ([], [3, 4, 5], 1, 2),
            ([], [1, 2, 3, 4, 5], 1, 4),
            ([(0, 3)], [3, 5], 1, 2),
            ([(4, 5)], [1, 2, 4], 3, 4),
            ([], [1, 2, 3, 4], 1, 4),
            ([], [1, 2, 3, 5], 1, 2),
            ([], [0, 1, 2, 3, 5], 3, 4),
        ),
        (
            ("MERGE_COMPLEMENTARY", 0, 2), ("MOVE_SINGLETON", 0, 4), ("MOVE_SINGLETON", 6, 10),
            ("SWAP_COMMUTING", 3, 6), ("MOVE_SINGLETON", 5, 9), ("SWAP_COMMUTING", 0, 5),
            ("MOVE_SINGLETON", 4, 8), ("MOVE_SINGLETON", 1, 5), ("MOVE_SINGLETON", 4, 8),
            ("MOVE_SINGLETON", 5, 8),
        ),
    ),
}
