"""`deciders.residue_r_index` reads r-chain indices in products of
residue monoids (Z/m, *) off gcds, with no table.  Each of its two
facts is checked against `r_chain_index` on the built tables: the gcd
walk on every residue of Z/m for m <= 64, the largest-factor rule on
every element of Z/m1 x Z/m2 for m1, m2 <= 12, and both together on
the `family36` rows against `prime_power_product` wherever the product
is under the size cap.  A rule that reads the last factor instead of
the largest gives the same `family36` rows, whose last factor is the
largest, and only the mixed products see it."""

import contextlib
import io

import pytest

from monact import cli
from monact.cli import main
from monact.deciders import r_chain_index, residue_r_index
from monact.errors import SizeOverflow
from monact.monoid import direct_product, prime_power_product, zmod_mult_monoid


def test_residue_index_matches_the_table_walk():
    checked = 0
    for m in range(1, 65):
        Z = zmod_mult_monoid(m)
        for a in range(m):
            assert residue_r_index([(m, a)]) == r_chain_index(Z, Z.relabeling[a]), (m, a)
            checked += 1
    assert checked == 64 * 65 // 2


def _product_mismatches(index):
    """(m1, a1, m2, a2) wherever index([(m1, a1), (m2, a2)]) differs from
    the table walk on the element (a1, a2) of Z/m1 x Z/m2."""
    mismatches = []
    zmods = [zmod_mult_monoid(m) for m in range(1, 13)]
    for Z1 in zmods:
        for Z2 in zmods:
            P = direct_product([Z1, Z2])
            for a1 in range(Z1.size):
                for a2 in range(Z2.size):
                    x = Z1.relabeling[a1] * Z2.size + Z2.relabeling[a2]
                    if index([(Z1.size, a1), (Z2.size, a2)]) != r_chain_index(P, x):
                        mismatches.append((Z1.size, a1, Z2.size, a2))
    return mismatches


def test_product_index_is_the_largest_factor_index():
    assert _product_mismatches(residue_r_index) == []


def _last_factor_index(components):
    """The planted rule: the last factor's index, not the largest."""
    return residue_r_index(list(components)[-1:])


def _family36_rows(p, max_n):
    """The rows `monact family36` prints, each as [N, index]."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["family36", "--p", str(p), "--max-n", str(max_n)]) == 0
    return [line.split() for line in out.getvalue().splitlines()[1:]]


def test_planted_last_factor_rule_is_caught_by_the_mixed_products(monkeypatch):
    rows = _family36_rows(2, 4)
    monkeypatch.setattr(cli, "residue_r_index", _last_factor_index)
    assert _family36_rows(2, 4) == rows
    # Z/4 x Z/2 at (2, 1): 2 settles at n = 2 in Z/4, 1 at once in Z/2
    assert (4, 2, 2, 1) in _product_mismatches(_last_factor_index)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_family36_rows_match_the_product_tables(p):
    n = 1
    while True:
        try:
            S, x = prime_power_product(p, n)
        except SizeOverflow:
            break
        assert _family36_rows(p, n)[-1] == [str(n), str(r_chain_index(S, x))]
        n += 1
    assert n - 1 == {2: 4, 3: 3, 5: 2, 7: 2}[p]
