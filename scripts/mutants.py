"""Mutation gate: each row breaks one spot of the package in a copy of the
repository, and every test the row names must then fail.

A row is (name, file, exact snippet, replacement, test ids). The snippet must
occur exactly once in its file, so a row whose code has moved or changed
fails the gate instead of passing unnoticed. The copy lives in a temporary
directory and the checkout is never written, apart from the JSON summary.
Before any mutant runs, the named tests must pass on the unmutated copy.
The summary, ``BENCH_mutants.json`` by default, holds each mutant's outcome
and seconds, the killed and surviving counts, and the wall time:

    python3 scripts/mutants.py
    python3 scripts/mutants.py --out summary.json

Exit 0 when every mutant is killed and 1 when one survives: a survivor needs
a new test, never a dropped row. Exit 2 on a stale snippet, on a named test
that fails unmutated, or on a pytest run that errors instead of failing.

A mutant whose outcome cannot change is no row. ``LOW_BITS = 11`` and ``13``
are such: Glynn's sum ranges over at most 19 columns, so the high part then
needs at most 8 bits, inside its one-byte count table, and the kernel stays
exact at every n the tests run, the int64-exact sizes and the wide ones both
(``16`` would leave n = 17 without the high part that the wide route halves).
``GLYNN_MAX = 15`` would be one too, as the route past it (halved even rows,
Bregman's certificate or the float completion) is exact at n = 16, but a test
pins GLYNN_MAX to the largest size whose Glynn total fits int64. So is a row
bound past GLYNN_MAX without the halving (``return r`` in ``_halved_count``):
a halved row's values stay within its count, so the plan only packs fewer
rows into each piece and group, which is slower and as exact. So is ``<=`` for
``<`` on ``first`` in the scan's argmax: each distinct (d, p) has its own
first graph, so two values never tie on it; the tie row flips the comparison.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_mutants.json"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "undirected-symmetry-dropped",
        "src/permatch/graphs.py",
        '        if not self.is_symmetric():\n'
        '            raise BadParamsError("undirected graph requires a symmetric adjacency")\n',
        "",
        (
            "tests/test_graphs.py::test_undirected_symmetry_enforced",
            "tests/test_graphs.py::test_undirected_graph_refuses_one_missing_reverse_arc",
        ),
    ),
    Mutant(
        "layout-digraph-first",
        "src/permatch/graphs.py",
        "    if isinstance(g, UndirectedGraph):  # before Digraph: every undirected graph is one\n"
        '        return "graph", [g.n], sorted(g.edges())\n'
        "    if isinstance(g, Digraph):\n"
        '        return "digraph", [g.n], sorted(g.arcs())\n',
        "    if isinstance(g, Digraph):\n"
        '        return "digraph", [g.n], sorted(g.arcs())\n'
        "    if isinstance(g, UndirectedGraph):\n"
        '        return "graph", [g.n], sorted(g.edges())\n',
        ("tests/test_graphs.py::test_parse_serialize_text",),
    ),
    Mutant(
        "negative-seed-accepted",
        "src/permatch/random_models.py",
        "    if type(seed) is not int or seed < 0:  # a bool or a float is no seed\n"
        '        raise BadParamsError(f"seed must be a non-negative integer, got {seed!r}")\n',
        "",
        (
            "tests/test_random_models.py::test_oversized_models_and_negative_seeds_are_refused_before_any_draw",
            "tests/test_random_models.py::test_child_seed_disjoint",
        ),
    ),
    Mutant(
        "ratio-half-without-cycle-term",
        "src/permatch/verify.py",
        "    return (2 * d <= p) & (equality == cyclic), equality\n",
        "    return (2 * d <= p), equality\n",
        ("tests/test_verify.py::test_survey_record_and_hex",),
    ),
    Mutant(
        "chord-break-on-tie",
        "src/permatch/injection.py",
        "        if i + 2 > best_stop:\n",
        "        if i + 2 >= best_stop:\n",
        ("tests/test_injection.py::test_first_minimal_chord_matches_inclusion_definition",),
    ),
    Mutant(
        "hex-low-place-first",
        "src/permatch/verify.py",
        "        codes[:, :, k] = rows >> 4 * (digits - 1 - k) & 15\n",
        "        codes[:, :, k] = rows >> 4 * k & 15\n",
        ("tests/test_verify.py::test_hex_text_matches_the_oracle_at_every_width",),
    ),
    Mutant(
        "group-rows-8",  # a row joins an in-order group while the product before it fits: 8 worst-case rows, 20^8
        "src/permatch/permanent.py",
        "        if group * b > group_max:\n",
        "        if group > group_max:\n",
        (
            "tests/test_permanent.py::test_row_group_fits_int32",
            "tests/test_permanent.py::test_zero_one_kernel_wraps_silently",
        ),
    ),
    Mutant(
        "high-part-sign",
        "src/permatch/permanent.py",
        "            sign = (-1) ** (n + h.bit_count())\n",
        "            sign = (-1) ** n\n",
        (  # through n = 16 one block holds every high part, so only the float-completed sizes reach h > 0
            "tests/test_permanent.py::test_zero_one_boundaries[20]",
            "tests/test_permanent.py::test_block_diagonal_product",
        ),
    ),
    Mutant(
        "low-bits-10",  # the high part needs 9 bits at n = 20, past its one-byte count table
        "src/permatch/permanent.py",
        "LOW_BITS = 12\n",
        "LOW_BITS = 10\n",
        (
            "tests/test_permanent.py::test_zero_one_boundaries[20]",
            "tests/test_permanent.py::test_zero_one_kernel_wraps_silently",
        ),
    ),
    Mutant(
        "glynn-max-17",  # 2^16 * 17! passes 2^64, so n = 17 reads a wrapped int64 total without its float one
        "src/permatch/permanent.py",
        "GLYNN_MAX = 16\n",
        "GLYNN_MAX = 17\n",
        (
            "tests/test_permanent.py::test_glynn_total_fits_int64",
            "tests/test_permanent.py::test_zero_one_boundaries[17]",
        ),
    ),
    Mutant(
        "glynn-offset-dropped",  # each row's value without its -r_i
        "src/permatch/permanent.py",
        "        lo_high -= counts.astype(np.int8)[..., None]  # row i's value at S = 0 is -r_i\n",
        "",
        (
            "tests/test_permanent.py::test_zero_one_boundaries[9]",
            "tests/test_permanent.py::test_zero_one_kernel_matches_dict_dp",
        ),
    ),
    Mutant(
        "float-total-integer-product",  # float(g0 g1) * g2 multiplied in int64, which wraps, then converted
        "src/permatch/permanent.py",
        "                    np.multiply(pass_approx if index > 2 else pass_prod, g, out=pass_approx, dtype=np.float64)\n",
        "                    np.multiply(pass_approx if index > 2 else pass_prod, g, out=pass_approx)\n",
        (
            "tests/test_permanent.py::test_zero_one_boundaries[20]",
            "tests/test_permanent.py::test_float_completed_sizes_match_inclusion_exclusion_when_dense",
        ),
    ),
    Mutant(
        "float-completion-dropped",  # past GLYNN_MAX per comes from the wrapped int64 total alone
        "src/permatch/permanent.py",
        "        if not certified:  # T' = t + 2^64 j, j the integer that brings T' within 2^63 of the float total\n",
        "        if False:\n",
        (
            "tests/test_permanent.py::test_zero_one_boundaries[17]",
            "tests/test_permanent.py::test_float_completed_sizes_match_inclusion_exclusion_when_dense",
        ),
    ),
    Mutant(
        "certificate-64-bits",  # a certified total may then pass 2^63 and read negative in int64
        "src/permatch/permanent.py",
        "    return scale, math.prod(BREGMAN[r] for r in counts) < 1 << 63 - scale + 32 * len(counts)\n",
        "    return scale, math.prod(BREGMAN[r] for r in counts) < 1 << 64 - scale + 32 * len(counts)\n",
        ("tests/test_permanent.py::test_certificate_edges_on_blocks_of_ones",),
    ),
    Mutant(
        "certificate-without-scale",  # Bregman's bound on per(A) alone, not on the 2^scale per(A) the kernel sums
        "src/permatch/permanent.py",
        "    return scale, math.prod(BREGMAN[r] for r in counts) < 1 << 63 - scale + 32 * len(counts)\n",
        "    return scale, math.prod(BREGMAN[r] for r in counts) < 1 << 63 + 32 * len(counts)\n",
        (
            "tests/test_permanent.py::test_zero_one_boundaries[17]",
            "tests/test_permanent.py::test_zero_one_boundaries[19]",
        ),
    ),
    Mutant(
        "pieces-of-4",  # a row joins an in-order piece while the product before it fits: 19^4 > 2^15 in J_20 - I
        "src/permatch/permanent.py",
        "        elif piece * b > piece_max:\n",
        "        elif piece > piece_max:\n",
        (
            "tests/test_permanent.py::test_row_piece_fits_int16",
            "tests/test_permanent.py::test_zero_one_boundaries[20]",
        ),
    ),
    Mutant(
        "piece-limit-2^15",  # a piece's product of bounds may reach 2^15, which wraps int16 to -2^15
        "src/permatch/permanent.py",
        "    piece_max, group_max = int(np.iinfo(values).max), int(np.iinfo(np.int32).max)\n",
        "    piece_max, group_max = int(np.iinfo(values).max) + 1, int(np.iinfo(np.int32).max)\n",
        (
            "tests/test_permanent.py::test_row_piece_fits_int16",
            "tests/test_permanent.py::test_pieces_and_groups_at_the_limits_of_their_dtypes",
        ),
    ),
    Mutant(
        "group-limit-2^31",  # a group's product of bounds may reach 2^31, which wraps int32 to -2^31
        "src/permatch/permanent.py",
        "    piece_max, group_max = int(np.iinfo(values).max), int(np.iinfo(np.int32).max)\n",
        "    piece_max, group_max = int(np.iinfo(values).max), int(np.iinfo(np.int32).max) + 1\n",
        ("tests/test_permanent.py::test_pieces_and_groups_at_the_limits_of_their_dtypes",),
    ),
    Mutant(
        "bound-one-short",  # each position's bound taken as its largest count less one, which a row attains
        "src/permatch/permanent.py",
        "max(map(bound, position)) or 1",
        "max(map(bound, position)) - 1 or 1",
        (
            "tests/test_permanent.py::test_pieces_and_groups_at_the_limits_of_their_dtypes",
            "tests/test_permanent.py::test_zero_one_boundaries[14]",
        ),
    ),
    Mutant(
        "sampler-word-shift",  # the second generator output's top 22 bits, not 21, in each 53-bit draw
        "src/permatch/random_models.py",
        "    present = (words & 0xFFFFFFFF | words >> 43 << 32) < -(-(q.numerator << 53) // q.denominator)\n",
        "    present = (words & 0xFFFFFFFF | words >> 42 << 32) < -(-(q.numerator << 53) // q.denominator)\n",
        (
            "tests/test_random_models.py::test_row_sampler_matches_the_arc_list_oracle",
            "tests/test_random_models.py::test_sampled_stream_is_pinned",
        ),
    ),
    Mutant(
        "sampler-q-biased",  # each slot present with probability q + 1/64
        "src/permatch/random_models.py",
        "    present = (words & 0xFFFFFFFF | words >> 43 << 32) < -(-(q.numerator << 53) // q.denominator)\n",
        "    q += Fraction(1, 64)\n"
        "    present = (words & 0xFFFFFFFF | words >> 43 << 32) < -(-(q.numerator << 53) // q.denominator)\n",
        ("tests/test_random_models.py::test_mc_mean_lands_near_the_exact_mean",),
    ),
    Mutant(
        "stale-row-counts",  # every pass after the first reads the previous pass's row values on L
        "src/permatch/permanent.py",
        "        np.add(lo_high[..., None], lo_low[:, :, None], out=pass_lo.reshape(m, n, lo_rest, lo_bytes))\n",
        "        if not first:\n"
        "            np.add(lo_high[..., None], lo_low[:, :, None], out=pass_lo.reshape(m, n, lo_rest, lo_bytes))\n",
        (
            "tests/test_permanent.py::test_stacked_passes_match_the_single_graph_route",
            "tests/test_counting.py::test_dp_counts_many_matches_one_graph_at_a_time",
        ),
    ),
    Mutant(
        "int32-accumulator",
        "src/permatch/permanent.py",
        "    prod = np.empty(piece.shape, dtype=np.int64)\n",
        "    prod = np.empty(piece.shape, dtype=np.int32)\n",
        (
            "tests/test_permanent.py::test_zero_one_boundaries[16]",
            "tests/test_permanent.py::test_zero_one_kernel_wraps_silently",
            "tests/test_permanent.py::test_pair_rows_with_diagonal[20]",
        ),
    ),
    Mutant(
        "half-hitting-strict",
        "src/permatch/verify.py",
        '    return TheoremReport("half-hitting", _describe(b), 2 * worst <= total == len(misses), None, details)\n',
        '    return TheoremReport("half-hitting", _describe(b), 2 * worst < total == len(misses), None, details)\n',
        ("tests/test_verify.py::test_check_half_hitting",),
    ),
    Mutant(
        "half-hitting-target-order",  # per(B) read off the last target's count, a target's off per(B)
        "src/permatch/verify.py",
        "    total, *misses = permanent_zero_one(b.nl, [b.biadj, *avoiding])\n",
        "    total, *misses = permanent_zero_one(b.nl, [*avoiding, b.biadj])\n",
        (
            "tests/test_verify.py::test_check_half_hitting",
            "tests/test_verify.py::test_half_hitting_counts_every_target_in_one_kernel_call",
        ),
    ),
    Mutant(
        "half-hitting-without-count-term",
        "src/permatch/verify.py",
        '    return TheoremReport("half-hitting", _describe(b), 2 * worst <= total == len(misses), None, details)\n',
        '    return TheoremReport("half-hitting", _describe(b), 2 * worst <= total, None, details)\n',
        ("tests/test_verify.py::test_checks_fail_when_count_and_enumeration_disagree",),
    ),
    Mutant(
        "matching-bound-no-count-term",
        "src/permatch/verify.py",
        "    ok = counted == total\n",
        "    ok = True\n",
        (
            "tests/test_verify.py::test_checks_fail_when_count_and_enumeration_disagree"
            "[check_matching_lower_bound-count_perfect_matchings_general-instance1]",
        ),
    ),
    Mutant(
        "census-masks-summed",
        "src/permatch/verify.py",
        "    masks = np.bitwise_or.reduce(moved << np.maximum(slot[vertices, perms], 0), axis=1)\n",
        "    masks = (moved << np.maximum(slot[vertices, perms], 0)).sum(axis=1)\n",
        (
            "tests/test_verify.py::test_host_census_columns_match_the_orbit_oracle",
            "tests/test_verify.py::test_each_biadjacency_slot_is_one_edge",
        ),
    ),
    Mutant(
        "chord-tie-earliest-start",
        "src/permatch/injection.py",
        "            if i + 1 < stop <= best_stop:  # forward and not the cycle's own arc\n",
        "            if i + 1 < stop < best_stop:  # forward and not the cycle's own arc\n",
        ("tests/test_injection.py::test_first_minimal_chord_matches_inclusion_definition",),
    ),
    Mutant(
        "chord-outside-cycle",  # the host's arcs to vertices off the cycle read as chords
        "src/permatch/injection.py",
        "        row = rows[u] & inside\n",
        "        row = rows[u]\n",
        (
            "tests/test_injection.py::test_first_minimal_chord_matches_inclusion_definition",
            "tests/test_injection.py::test_roundtrip_exhaustive_small",
        ),
    ),
    Mutant(
        "audit-mask-zeroed",  # the audit's round trip hands the inverse an image with no fixed point
        "src/permatch/injection.py",
        "            if _invert(g, p, mask, v) != d:\n",
        "            if _invert(g, p, 0, v) != d:\n",
        (
            "tests/test_verify.py::test_check_injection_report",
            "tests/test_verify.py::test_check_injection_details_count_each_graph_exactly",
            "tests/test_verify.py::test_check_injection_hands_the_inverse_each_permutations_fixed_points",
        ),
    ),
    Mutant(
        "audit-refusal-mask-zeroed",  # every other permutation is refused for having no fixed point, whatever it is
        "src/permatch/injection.py",
        "                    back = _invert(g, p, m, v)\n",
        "                    back = _invert(g, p, 0, v)\n",
        ("tests/test_verify.py::test_check_injection_hands_the_inverse_each_permutations_fixed_points",),
    ),
    Mutant(
        "audit-derangement-filter-inverted",  # the audit maps the permutations with a fixed point instead
        "src/permatch/injection.py",
        "        derangements = [p for p, m in zip(permutations, masks) if not m]\n",
        "        derangements = [p for p, m in zip(permutations, masks) if m]\n",
        (
            "tests/test_verify.py::test_check_injection_report",
            "tests/test_verify.py::test_check_injection_details_count_each_graph_exactly",
        ),
    ),
    Mutant(
        "audit-image-unchecked",  # an image off the graph reaches the unchecked inverse
        "src/permatch/injection.py",
        "            check_permutation_on_graph(g, p)\n",
        "",
        ("tests/test_verify.py::test_check_injection_checks_each_image_on_the_graph",),
    ),
    Mutant(
        "expected-inclusion-off-by-one",
        "src/permatch/random_models.py",
        "        prob.append(prob[-1] * Fraction(m - t, slots - t))\n",
        "        prob.append(prob[-1] * Fraction(m - t - 1, slots - t))\n",
        (
            "tests/test_random_models.py::test_expected_counts_against_full_enumeration",
            "tests/test_random_models.py::test_expected_counts_pinned_value",
        ),
    ),
    Mutant(
        "scan-tie-to-last-graph",
        "src/permatch/verify.py",
        "        if gain > 0 or gain == 0 and first[j] < first[best]:\n",
        "        if gain > 0 or gain == 0 and first[j] > first[best]:\n",
        ("tests/test_verify.py::test_scan_ties_go_to_the_first_graph_and_exceedances_count_graphs",),
    ),
    Mutant(
        "format-ties-half-up",
        "src/permatch/verify.py",
        "    if 2 * r > b or 2 * r == b and q & 1:\n",
        "    if 2 * r >= b:\n",
        (
            "tests/test_verify.py::test_format_12sig",
            "tests/test_verify.py::test_format_12sig_rounds_ties_to_even_and_carries_into_the_next_decade",
        ),
    ),
    Mutant(
        "format-carry-dropped",  # 0.09999999999995 rounds to 13 digits in the decade below
        "src/permatch/verify.py",
        "        if q == 10**12:\n"
        "            q, e = 10**11, e + 1\n",
        "",
        ("tests/test_verify.py::test_format_12sig_rounds_ties_to_even_and_carries_into_the_next_decade",),
    ),
    Mutant(
        "exceedances-per-distinct-pair",
        "src/permatch/verify.py",
        '            summary["conjecture_exceedances"] = int(count[exceeding].sum())\n',
        '            summary["conjecture_exceedances"] = int(np.count_nonzero(exceeding))\n',
        ("tests/test_verify.py::test_scan_ties_go_to_the_first_graph_and_exceedances_count_graphs",),
    ),
    Mutant(
        "empty-matrix-guard-dropped",  # n = 0 then reaches the column split, 1 << -1
        "src/permatch/permanent.py",
        "    if n == 0:  # the empty matrix has one permutation, the empty one; the kernel needs a column to split\n"
        "        return [1] * len(matrices)\n",
        "",
        (
            "tests/test_permanent.py::test_tiny_cases",
            "tests/test_permanent.py::test_empty_matrix_and_empty_list",
        ),
    ),
    Mutant(
        "kernel-row-bits-unchecked",  # a row with bits at or past column n reaches the kernel
        "src/permatch/permanent.py",
        "            if row < 0 or row >> n:\n",
        "            if row < 0:\n",
        (
            "tests/test_permanent.py::test_input_validation",
            "tests/test_permanent.py::test_every_stacked_input_is_validated",
        ),
    ),
    Mutant(
        "profile-shift-dropped",
        "src/permatch/counting.py",
        "                new[key] = get(key, 0) + (count << width if low == own else count)\n",
        "                new[key] = get(key, 0) + count\n",
        (
            "tests/test_counting.py::test_fixed_point_profile",
            "tests/test_counting.py::test_fixed_point_profile_sums_to_permutations",
        ),
    ),
    Mutant(
        "block-table-weight-dropped",
        "src/permatch/permanent.py",
        "                block[r, c] = sum(x * block[rest, c ^ 1 << j] for j, x in enumerate(row) if c >> j & 1)\n",
        "                block[r, c] = sum(block[rest, c ^ 1 << j] for j, x in enumerate(row) if c >> j & 1)\n",
        ("tests/test_permanent.py::test_subpermanent_identity_small",),
    ),
    Mutant(
        "records-tail-kept",  # a shorter scan over a longer file leaves the old tail behind
        "src/permatch/verify.py",
        "            f.truncate()\n",
        "            pass\n",
        (
            "tests/test_cli.py::test_shorter_scan_over_a_longer_out_leaves_exactly_its_bytes",
            "tests/test_cli.py::test_scan_writes_through_a_symlinked_out",
        ),
    ),
    Mutant(
        "records-cut-anywhere",  # cutting the tail of /dev/null or a pipe fails after the sweep has run
        "src/permatch/verify.py",
        "        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):  # a device or a pipe has no length to cut\n",
        "        if True:\n",
        (
            "tests/test_cli.py::test_scan_writes_to_a_device",
            "tests/test_cli.py::test_scan_writes_to_a_pipe",
        ),
    ),
    Mutant(
        "mc-verdict-ignored",
        "src/permatch/verify.py",
        "    if not oks.all():\n",
        "    if False:\n",
        (
            "tests/test_cli.py::test_mc_exits_1_on_a_counterexample",
            "tests/test_cli.py::test_mc_exits_1_on_equality_off_a_directed_cycle",
        ),
    ),
    Mutant(
        "scan-sampling-refusal-dropped",  # an exhaustive scan ignores samples, q and seed again
        "src/permatch/verify.py",
        '        raise BadParamsError(f"the {family} family draws no samples; drop " + " and ".join(given))\n',
        "        pass\n",
        (
            "tests/test_verify.py::test_exhaustive_scan_refuses_each_sampling_option",
            "tests/test_cli.py::test_exhaustive_scan_refuses_a_sampling_option",
        ),
    ),
    Mutant(
        "part-size-refusal-dropped",  # the one part-size check, which every bipartite builder and the scan reach
        "src/permatch/graphs.py",
        '        raise BadParamsError(f"part sizes must be in [1, {MAX_VERTICES}], got {nl!r}, {nr!r}")\n',
        "        pass\n",
        (
            "tests/test_verify.py::test_each_input_rule_refuses_with_one_line_from_every_entry",
            "tests/test_graphs.py::test_builders_refuse_a_size_before_they_allocate",
        ),
    ),
    Mutant(
        "undirected-refusal-dropped",  # the one undirected-input check, which the matching bound relies on
        "src/permatch/counting.py",
        '        raise BadParamsError(f"general perfect matchings need an undirected graph, got {type(g).__name__}")\n',
        "        pass\n",
        (
            "tests/test_verify.py::test_each_input_rule_refuses_with_one_line_from_every_entry",
            "tests/test_verify.py::test_statement_checks_refuse_the_wrong_graph_type",
        ),
    ),
    Mutant(
        "model-vertex-count-dropped",
        "src/permatch/random_models.py",
        "        check_vertex_count(self.n)  # before sample_rows draws n(n-1) words"
        " for a graph the graph types refuse\n",
        "",
        (
            "tests/test_random_models.py::test_model_spec_validation",
            "tests/test_random_models.py::test_oversized_models_and_negative_seeds_are_refused_before_any_draw",
        ),
    ),
    Mutant(
        "caller-share-last",  # the caller's own share joins the children's results at the end, not the start
        "src/permatch/random_models.py",
        "        return out\n    finally:\n",
        "        return out[len(shares[0]) :] + out[: len(shares[0])]\n    finally:\n",
        (
            "tests/test_verify.py::test_parallel_map_starts_no_more_workers_than_cpus",
            # on two usable CPUs, where the thread count changes the fan-out
            "tests/test_verify.py::test_scan_sampled_records_same_at_any_thread_count",
        ),
    ),
    Mutant(
        "worker-cap-without-cpus",  # as many workers as threads, whatever CPUs the process may use
        "src/permatch/random_models.py",
        "    workers = min(threads, _usable_cpus(), len(items))\n",
        "    workers = min(threads, len(items))\n",
        ("tests/test_verify.py::test_parallel_map_starts_no_more_workers_than_cpus",),
    ),
    Mutant(
        "empty-pipe-as-empty-share",  # a child killed before it wrote reads as a share with no results
        "src/permatch/random_models.py",
        "            if code:\n",
        "            if not payload:\n"
        "                continue\n"
        "            if code:\n",
        ("tests/test_verify.py::test_a_dead_worker_exits_3_and_leaves_no_child",),
    ),
    Mutant(
        "numpy-loaded-eagerly",  # numpy imported with the package, so every command pays its start-up
        "src/permatch/_lazy.py",
        '_spec = None if "numpy" in sys.modules else importlib.util.find_spec("numpy")\n',
        "_spec = None\n",
        ("tests/test_cli.py::test_numpy_free_commands_never_import_numpy",),
    ),
)


def run_tests(copy: Path, tests) -> tuple[int, set[str]]:
    """pytest's exit code on the named tests in the copy, and the ids of the tests that failed."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=copy,
        # no bytecode: a mutant and its restored original may share a size and an mtime second
        env=dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
    )
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    return proc.returncode, failed


def caught(test: str, failed: set[str]) -> bool:
    """Whether the named test, or one of its parametrized cases, failed."""
    return any(f == test or f.startswith(test + "[") for f in failed)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        originals = {m.file: (copy / m.file).read_text() for m in MUTANTS}
        stale = [f"{m.name}: snippet occurs {originals[m.file].count(m.snippet)} times in {m.file}, not once"
                 for m in MUTANTS if originals[m.file].count(m.snippet) != 1]
        if stale:
            print("\n".join(stale), file=sys.stderr)
            return 2
        code, failed = run_tests(copy, sorted({t for m in MUTANTS for t in m.tests}))
        if code != 0:
            print(f"the named tests fail unmutated (pytest exit {code}): {sorted(failed)}", file=sys.stderr)
            return 2
        for m in MUTANTS:
            t0 = time.perf_counter()
            path = copy / m.file
            path.write_text(originals[m.file].replace(m.snippet, m.replacement))
            try:
                code, failed = run_tests(copy, m.tests)
            finally:
                path.write_text(originals[m.file])
            if code not in (0, 1):
                print(f"{m.name}: pytest exited {code}, an error rather than a failing test", file=sys.stderr)
                return 2
            missed = [t for t in m.tests if not caught(t, failed)]
            outcome = "survived" if missed else "killed"
            results.append({"name": m.name, "file": m.file, "tests": list(m.tests), "outcome": outcome,
                            "passed_under_mutant": missed, "seconds": round(time.perf_counter() - t0, 2)})
            print(f"{m.name:<32} {outcome}" + (f"  (passed: {', '.join(missed)})" if missed else ""))

    survived = sum(r["outcome"] == "survived" for r in results)
    doc = {
        "python": platform.python_version(),
        "killed": len(results) - survived,
        "survived": survived,
        "wall_s": round(time.perf_counter() - start, 2),
        "mutants": results,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
