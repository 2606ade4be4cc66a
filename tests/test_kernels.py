"""The pure-Python counting oracle against independent Bell and Catalan numbers."""

import math

import pytest

from freewick import ncpart


def bell_numbers(nmax):
    # Bell triangle, independent of the oracles: each row starts with the
    # previous row's last entry and ends with the next Bell number
    row = [1]
    out = [1]
    for _ in range(nmax - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[-1])
    return out


class TestPurePython:
    @pytest.mark.parametrize("n", range(1, ncpart.NC_LIMIT + 1))
    def test_counts(self, n):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert ncpart.brute_noncrossing_count(n) == (bell_numbers(n)[-1], catalan)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ncpart.brute_noncrossing_count(0)
