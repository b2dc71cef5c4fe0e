#!/usr/bin/env python3
"""Re-run the catalogue of hand-made mutants against the tests that kill them.

Each entry names a file under src/k2sym, an exact text in it, the text that
replaces it, and the test node ids that must fail once it is replaced.  The
script copies src/, tests/, scripts/, benchmarks/ and pyproject.toml to a
temporary directory, applies one entry at a time there, runs only that
entry's nodes, and prints one line per entry:

    killed    the nodes failed, or ran past the timeout: four times the
              unmutated run of all chosen nodes, plus 10 s ("killed (timeout)")
    survived  the nodes passed: the tests no longer see the mutant
    stale     the old text is not in the file exactly once, or a node names
              a test function that does not exist; re-aim the entry
    error     pytest stopped without a test result (exit 2 to 5)

Before any mutant, the chosen entries' nodes run once on the unmutated
copy; if they do not all pass, no mutant is run.

    python3 scripts/mutants.py                  # every entry
    python3 scripts/mutants.py legendre-euler   # the named entries
    python3 scripts/mutants.py --check          # stale entries only, no tests

Exits 1 when any entry is not killed (with --check, when any is stale).
The working tree is never modified.
"""
import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "benchmarks", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str   # relative to src/k2sym
    old: str
    new: str
    nodes: tuple[str, ...]


CATALOGUE = (
    Mutant("cartier-den-power", "charpforms.py",
           "P = h.num * h.den ** (p - 1)",
           "P = h.num * h.den ** p",
           ("tests/test_charpforms.py::test_cartier_semilinearity",)),
    Mutant("square-scale-abs", "quadforms.py",
           "t *= Fraction(p) ** (e // 2)",
           "t *= Fraction(p) ** (abs(e) // 2)",
           ("tests/test_quadforms.py::test_point_search_fractional_coefficients",)),
    Mutant("square-class-numerator-only", "quadforms.py",
           "odd ^= {p for p, e in r.exps.items() if e % 2}",
           "odd ^= {p for p, e in r.exps.items() if e % 2 and e > 0}",
           ("tests/test_quadforms.py::test_square_class_examples",)),
    Mutant("hasse-at-real-place", "quadforms.py",
           "return -1 if neg * (neg - 1) // 2 % 2 else 1",
           "return -1 if neg * (neg + 1) // 2 % 2 else 1",
           ("tests/test_quadforms.py::test_hasse_product_formula",)),
    Mutant("legendre-euler", "arith.py",
           "r = pow(a, (p - 1) // 2, p)",
           "r = pow(a, (p + 1) // 2, p)",
           ("tests/test_arith.py::test_legendre_matches_exhaustion_for_p_below_100",)),
    Mutant("tame-sign", "localsym.py",
           "return p - t if a * b % 2 else t",
           "return t",
           ("tests/test_localsym.py::test_tame_examples",)),
    Mutant("s2-omega-swap", "localsym.py",
           "omega_u * b + omega_w * a",
           "omega_u * a + omega_w * b",
           ("tests/test_localsym.py::test_s_2_examples",)),
    Mutant("zech-last-row", "arith.py",
           "for k in range(len(rem) - 1, db - 1, -1):\n            r = rem[k]",
           "for k in range(len(rem) - 1, db, -1):\n            r = rem[k]",
           ("tests/test_arith.py::test_poly_kernels_match_schoolbook[9]",)),
    Mutant("zech-plus-one-wrap", "arith.py",
           "        log_succ[p - 1 :: p] = log[::p]\n",
           "",
           ("tests/test_arith.py::test_tables_match_doubling_reference[1024]",
            "tests/test_arith.py::test_tables_match_doubling_reference[2187]")),
    Mutant("zech-slot-reduction-by-p-1", "arith.py",
           "x = (s & digits) - p * (((s + bias) & top) >> w1)",
           "x = (s & digits) - (p - 1) * (((s + bias) & top) >> w1)",
           ("tests/test_arith.py::test_tables_match_doubling_reference[343]",)),
    Mutant("zech-walk-reduction-bias", "arith.py",
           "x = (s & digits) - p * (((s + bias) & top) >> w1)",
           "x = (s & digits) - p * ((s & top) >> w1)",
           ("tests/test_arith.py::test_tables_match_doubling_reference[343]",
            "tests/test_arith.py::test_fraction_operations_match_cross_products[F_9(T)]")),
    Mutant("zech-image-reduction-bias", "arith.py",
           "return s - p * (((s + bias) & top) >> w1)",
           "return s - p * ((s & top) >> w1)",
           ("tests/test_arith.py::test_tables_match_doubling_reference[625]",)),
    Mutant("pow-mod-first-factor-shift", "arith.py",
           "        result = base\n        e >>= 1\n",
           "        result = base\n",
           ("tests/test_arith.py::test_poly_kernels_match_schoolbook[9]",)),
    Mutant("mod-on-divmod", "arith.py",
           "return Poly._trusted(F, F.poly_rem(self.coeffs, other.coeffs))",
           "return Poly._trusted(F, F.poly_divmod(self.coeffs, other.coeffs)[1])",
           ("tests/test_arith.py::test_remainder_paths_build_no_quotient",)),
    Mutant("local-data-zero", "localsym.py",
           "x = _as_nonzero_fraction(x)\n    _, fac = factorize(x)",
           "x = Fraction(x)\n    _, fac = factorize(x)",
           ("tests/test_cli.py::test_invalid_inputs_exit_2[zero-reciprocity]",
            "tests/test_cli.py::test_invalid_inputs_exit_2[zero-quaternion]",
            "tests/test_cli.py::test_invalid_inputs_exit_2[zero-pfister]")),
    Mutant("conic-height", "quadforms.py",
           "if height_bound < 1:",
           "if height_bound < -10**9:",
           ("tests/test_quadforms.py::test_point_search_refuses_a_height_bound_below_1",)),
    Mutant("conic-height-cap", "cli.py",
           "if not 1 <= args.height <= MAX_HEIGHT:",
           "if not 1 <= args.height:",
           ("tests/test_cli.py::test_invalid_inputs_exit_2[conic-height-above-bound]",)),
    Mutant("poly-mixed-field-check", "arith.py",
           "        if self.field is not other.field:\n            raise ValueError(\"mixed coefficient fields\")",
           "        if self.field is not other.field:\n            pass",
           ("tests/test_arith.py::test_polynomials_over_different_fields_do_not_mix",)),
    Mutant("strip-order-step", "funcfield.py",
           "f, m = quot, m + 1",
           "f, m = quot, m + 2",
           ("tests/test_funcfield.py::test_orders_from_factorizations_match_strip[5]",
            "tests/test_regnum.py::test_tame_symbol_frozen_examples")),
    Mutant("resultant-sign", "funcfield.py",
           "if m * n % 2:\n            res = F.neg(res)",
           "if m * n % 2:\n            res = res",
           ("tests/test_funcfield.py::test_residue_norm_is_the_exponent_formula[5]",)),
    Mutant("resultant-lc-power", "funcfield.py",
           "F.pow(b[-1], m - (len(r) - 1))",
           "F.pow(b[-1], m - len(r))",
           ("tests/test_funcfield.py::test_residue_norm_is_the_exponent_formula[5]",)),
    Mutant("factor-root-multiplicity", "arith.py",
           "exps[g] = exps.get(g, 0) + e * F.p",
           "exps[g] = exps.get(g, 0) + e",
           ("tests/test_funcfield.py::test_orders_from_factorizations_match_strip[9]",)),
    Mutant("hilbert-dyadic-as-real", "localsym.py",
           "if place.p == 2:\n        return s_2(x, y)",
           "if place.p == 2:\n        return s_infinity(x, y)",
           ("tests/test_localsym.py::test_h_p_matches_congruence_oracle_small_primes",)),
    Mutant("tame-ff-sign", "funcfield.py",
           "return F.poly_scale(top, F.neg(F.one)) if ab % 2 else top",
           "return top",
           ("tests/test_regnum.py::test_tame_symbol_frozen_examples",)),
    Mutant("exact-div-row-remainder", "charpforms.py",
           "            if r:\n                raise ValueError(\"not an exact division\")\n            Q[k] = q",
           "            Q[k] = q",
           ("tests/test_charpforms.py::test_exact_div_roundtrip",)),
    Mutant("miller-rabin-witness-41", "arith.py",
           "_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
           "_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
           ("tests/test_arith.py::test_is_prime_sees_through_the_least_strong_pseudoprime_to_bases_below_41",)),
    Mutant("witness-division-bound", "arith.py",
           "if n < 43 * 43:",
           "if n <= 43 * 43:",
           ("tests/test_arith.py::test_is_prime_matches_naive_oracle_below_2000",)),
    Mutant("parse-sum-fold-swapped", "parsing.py",
           "value = self.fold(op, value, self.term())",
           "value = self.fold(op, self.term(), value)",
           ("tests/test_parsing.py::test_precedence_and_associativity",)),
    Mutant("parse-lift-on-divide", "parsing.py",
           "return self.lifted(a) / self.lifted(b)",
           "return a / b",
           ("tests/test_parsing.py::test_random_expressions_match_the_fraction_field_fold",)),
    Mutant("parse-paren-keeps-depth", "parsing.py",
           "            self.pos += 1\n            self.depth -= 1\n            return value",
           "            self.pos += 1\n            return value",
           ("tests/test_parsing.py::test_long_funcfield_chain_matches_left_fold",)),
    Mutant("poly-scale-zech", "arith.py",
           "return [exp[lc + log[x]] if x else 0 for x in a]",
           "return [exp[log[x]] if x else 0 for x in a]",
           ("tests/test_arith.py::test_poly_scale_is_coefficientwise_mul",)),
    Mutant("dlog2-jacobian-sign", "charpforms.py",
           "f.derivative_s() * g.derivative_t() - f.derivative_t() * g.derivative_s()",
           "f.derivative_t() * g.derivative_s() - f.derivative_s() * g.derivative_t()",
           ("tests/test_charpforms.py::test_dlog2_orientation_and_wedge_reference",)),
    Mutant("place-prime-check", "localsym.py",
           "if self.p is not None and not is_prime(self.p):",
           "if False:",
           ("tests/test_localsym.py::test_place_validation",)),
    Mutant("factor-bound", "arith.py",
           "if n > FACTOR_BOUND:",
           "if n > FACTOR_BOUND ** 2:",
           ("tests/test_arith.py::test_trial_division_holds_the_one_factorization_bound",)),
    Mutant("scan-bound", "arith.py",
           "if self.q > FIELD_LIMIT:\n            raise ValueError(f\"F_{self.q} is too large to scan",
           "if self.q > FIELD_LIMIT ** 2:\n            raise ValueError(f\"F_{self.q} is too large to scan",
           ("tests/test_arith.py::test_scanning_a_field_is_bounded",)),
    Mutant("loop-integral-entry-rule", "regnum.py",
           "    _check_entries(f, g, CX)\n",
           "",
           ("tests/test_regnum.py::test_loop_integral_refuses_a_zero_function_by_the_entry_rule",)),
    Mutant("dilog-bernoulli-terms", "regnum.py",
           "for n in range(40)",
           "for n in range(8)",
           ("tests/test_regnum.py::test_bloch_wigner_keeps_its_relative_accuracy_near_zero",)),
    Mutant("taylor-shift-sign", "regnum.py",
           "x, y = xs[k] + p * x - q * y, ys[k] + p * y + q * x",
           "x, y = xs[k] - p * x + q * y, ys[k] - p * y - q * x",
           ("tests/test_regnum.py::test_loop_integral_matches_pullback_oracle_on_random_loops",)),
    Mutant("expansion-leading-zeros", "regnum.py",
           "    k = 0\n    while not (xs[k] or ys[k]):\n        k += 1\n",
           "    k = 0\n",
           ("tests/test_cli.py::test_residue_at_a_multiple_root",)),
    Mutant("radius-root", "regnum.py",
           "_log_sqrt(z.a * z.a + z.b * z.b, z.d * z.d) / j",
           "_log_sqrt(z.a * z.a + z.b * z.b, z.d * z.d)",
           ("tests/test_regnum.py::test_residue_radius_keeps_the_other_zeros_and_poles_outside_twice_it",)),
    Mutant("radius-factor", "regnum.py",
           "radius = 0.25 * math.exp(-max(logs))",
           "radius = 0.5 * math.exp(-max(logs))",
           ("tests/test_regnum.py::test_residue_radius_keeps_the_other_zeros_and_poles_outside_twice_it",)),
    Mutant("unit-derivative-weight", "regnum.py",
           "pairs.append((c, j * c))",
           "pairs.append((c, c))",
           ("tests/test_regnum.py::test_loop_integral_matches_pullback_oracle_on_random_loops",)),
    Mutant("new-nodes-only", "regnum.py",
           "values += sample([k * step for k in range(1, n, 2)])",
           "values += sample([k * step for k in range(0, n, 2)])",
           ("tests/test_regnum.py::test_loop_integral_matches_pullback_oracle_on_random_loops",)),
    Mutant("squarefree-shortcut", "arith.py",
           "radical = remaining if len(common) == 1 else F.poly_divmod(remaining, common)[0]",
           "radical = remaining",
           # test_poly_factor_with_multiplicity_char2 hangs on this mutant
           # instead of failing, so it is not named
           ("tests/test_arith.py::test_poly_factor_reconstructs_and_factors_irreducible",)),
    Mutant("quadrec-kernel-place", "k2q.py",
           "hp = _h(*_residue(p, p), *_residue(q, p), p)",
           "hp = _h(*_residue(p, p), *_residue(q, q), p)",
           ("tests/test_k2q.py::test_quadratic_reciprocity_matches_the_public_symbols",)),
    Mutant("make-coordinate-range", "k2q.py",
           "    odd = _normalized(odd_map)\n    for p, a in odd:\n        if not 2 <= a <= p - 1:\n"
           "            raise ValueError(f\"coordinate at {p} out of range: {a}\")\n    return odd\n",
           "    return _normalized(odd_map)\n",
           ("tests/test_k2q.py::test_make_tests_each_key_then_the_reduced_range",)),
    Mutant("class-key-field", "funcfield.py",
           "        _check_field(base, *entries)\n",
           "",
           ("tests/test_funcfield.py::test_a_class_refuses_keys_of_another_field",)),
    Mutant("count-points-early-bound", "zeta.py",
           "if n >= FIELD_LIMIT.bit_length():",
           "if False:",
           ("tests/test_zeta.py::test_count_refuses_a_huge_extension_before_building_it",)),
    Mutant("factor-bound-message-size", "arith.py",
           "factorization bound: an integer of {n.bit_length()} bits",
           "factorization bound: {n}",
           ("tests/test_cli.py::test_a_huge_integer_is_refused_by_its_size",)),
    Mutant("prime-bound-message-size", "arith.py",
           "primality beyond the bound {PRIME_BOUND}: an integer of {n.bit_length()} bits",
           "primality of {n} is beyond the bound {PRIME_BOUND}",
           ("tests/test_arith.py::test_is_prime_refuses_a_huge_integer_by_its_size",)),
    Mutant("mixed-field-entries", "funcfield.py",
           "    _check_field(F, f, g)\n",
           "",
           ("tests/test_funcfield.py::test_weil_and_expressions_refuse_mixed_fields",)),
    Mutant("writer-nested-indent", "cli.py",
           'sep = "[\\n" + inner',
           'sep = "[\\n" + indent + " "',
           ("tests/test_cli.py::test_report_writer_is_json_dumps",)),
    Mutant("writer-unsorted-keys", "cli.py",
           "for key in sorted(value):",
           "for key in value:",
           ("tests/test_cli.py::test_report_writer_is_json_dumps",)),
    Mutant("dispatch-leftovers-dropped", "cli.py",
           "    if extras:\n",
           "    if False:\n",
           ("tests/test_cli.py::test_leftover_arguments_are_refused_by_the_top_parser",
            "tests/test_cli.py::test_one_pass_dispatch_matches_the_top_parser")),
    Mutant("factoring-budget-off-by-one", "arith.py",
           "if f.degree > top:",
           "if f.degree > top + 1:",
           ("tests/test_arith.py::test_factoring_budget_is_a_degree_per_field",)),
    Mutant("residue-underflow-unnamed", "regnum.py",
           "    if radius == 0:\n",
           "    if radius < 0:\n",
           ("tests/test_cli.py::test_residue_names_a_zero_beyond_floats",)),
    Mutant("linear-factor-base-case", "arith.py",
           "    if len(f) == 2:\n        return {tuple(f): 1}\n",
           "",
           ("tests/test_arith.py::test_a_linear_input_is_its_own_factorization",)),
    Mutant("factor-memo-unread", "arith.py",
           "    known = f._factors\n    if known is None:\n",
           "    known = None\n    if known is None:\n",
           ("tests/test_funcfield.py::test_a_lift_round_trip_factors_representatives_only",
            "tests/test_cli.py::test_fflift_runs_the_distinct_degree_loop_once_per_key")),
    Mutant("irreducible-proof-not-monic", "arith.py",
           "    if f.is_monic():\n        _set_factors(f, _IRREDUCIBLE)\n",
           "    if True:\n        _set_factors(f, _IRREDUCIBLE)\n",
           ("tests/test_arith.py::test_a_proof_is_recorded_for_a_monic_input_only",)),
    Mutant("frobenius-start-last-bit", "arith.py",
           "        if q >> i & 1:",
           "        if i and q >> i & 1:",
           ("tests/test_arith.py::test_frobenius_start_is_x_to_the_q",)),
    Mutant("odd-coordinates-normal-form", "k2q.py",
           "    if odd != _odd_coordinates(dict(odd)):\n",
           "    if False:\n",
           ("tests/test_k2q.py::test_k2qclass_validation",
            "tests/test_k2q.py::test_public_constructors_still_check_primes")),
    Mutant("negative-power-check", "arith.py",
           "    if e < 0:\n        raise ValueError(\"negative polynomial power\")\n    result = one\n",
           "    result = one\n",
           ("tests/test_arith.py::test_a_negative_power_is_refused_by_square_and_multiply",)),
    Mutant("residue-orders-numerators-only", "regnum.py",
           "fn.order - fd.order, gn.order - gd.order",
           "fn.order, gn.order",
           ("tests/test_regnum.py::test_tame_symbol_frozen_examples",)),
    Mutant("tame-ff-zero-entries", "funcfield.py",
           "    _check_entries(f, g, F)\n    _check_field(F, place.pi)\n",
           "    _check_field(F, g, place.pi)\n",
           ("tests/test_regnum.py::test_tame_symbol_frozen_examples",
            "tests/test_cli.py::test_invalid_inputs_exit_2[zero-residue]")),
    Mutant("conic-search-zero-after-height", "quadforms.py",
           "    x, y = _as_nonzero_fraction(x), _as_nonzero_fraction(y)\n    if height_bound",
           "    x, y = Fraction(x), Fraction(y)\n    if height_bound",
           ("tests/test_quadforms.py::test_every_entry_point_refuses_zero_with_one_message",)),
)


def _test_functions(test_file: Path) -> set[str]:
    tree = ast.parse(test_file.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def stale_reason(m: Mutant, root: Path = ROOT) -> str | None:
    """Why the entry no longer applies to the tree at root, or None."""
    source = root / "src" / "k2sym" / m.path
    if not source.is_file():
        return f"no file {m.path}"
    count = source.read_text().count(m.old)
    if count != 1:
        return f"old text found {count} times in {m.path}"
    for node in m.nodes:
        test_path, _, test = node.partition("::")
        test_file = root / test_path
        if not test_file.is_file() or test.split("[")[0] not in _test_functions(test_file):
            return f"no test {node}"
    return None


def run_nodes(nodes, work: Path, timeout: float | None = None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
                          cwd=work, env=env, capture_output=True, text=True, timeout=timeout)


def run_mutant(m: Mutant, work: Path, timeout: float | None = None) -> str:
    """Apply m in the copy at work, run its nodes, restore the file.  Nodes
    still running after timeout seconds are stopped, and count as killed."""
    source = work / "src" / "k2sym" / m.path
    original = source.read_text()
    source.write_text(original.replace(m.old, m.new))
    try:
        code = run_nodes(m.nodes, work, timeout).returncode
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    finally:
        source.write_text(original)
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="entries to run (default: all)")
    ap.add_argument("--check", action="store_true", help="report stale entries without running tests")
    args = ap.parse_args()

    known = {m.name: m for m in CATALOGUE}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown entries {unknown}; known: {sorted(known)}")
    chosen = [known[n] for n in args.names] if args.names else list(CATALOGUE)

    bad = 0
    if args.check:
        for m in chosen:
            reason = stale_reason(m)
            print(f"{'stale' if reason else 'ok':9s} {m.name}" + (f": {reason}" if reason else ""))
            bad += reason is not None
        return 1 if bad else 0

    with tempfile.TemporaryDirectory(prefix="k2sym-mutants-") as tmp:
        work = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, work / item, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            else:
                shutil.copy2(src, work / item)
        start = time.perf_counter()
        nodes = sorted({node for m in chosen for node in m.nodes})
        baseline = run_nodes(nodes, work)
        if baseline.returncode != 0:
            print(baseline.stdout[-2000:])
            print(f"the unmutated tree fails its nodes (pytest exit {baseline.returncode}): no mutant run")
            return 1
        timeout = 4 * (time.perf_counter() - start) + 10
        for m in chosen:
            reason = stale_reason(m, work)
            t = time.perf_counter()
            outcome = f"stale: {reason}" if reason else run_mutant(m, work, timeout)
            print(f"{outcome:9s} {m.name}  ({time.perf_counter() - t:.1f} s)", flush=True)
            bad += not outcome.startswith("killed")
        print(f"{len(chosen) - bad} of {len(chosen)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
