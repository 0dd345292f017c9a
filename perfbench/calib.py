"""The benchmark's calibration run: a fixed exact computation, timed next to
every command to gauge how fast the shared host is at that moment.

    python3 perfbench/calib.py

It multiplies truncated q-series whose coefficients are polynomials with
Fraction coefficients, the same kind of work as the exact engine's
``series_mul``, but with its own code and only the standard library, so no
change to ``src/`` changes its cost.  It runs in a fresh interpreter, as the
commands do, and exits 0 when its result is right.
"""
from fractions import Fraction

ORDER = 30
FACTORS = 3


def poly_mul(p: dict, q: dict) -> dict:
    out: dict[int, Fraction] = {}
    for i, x in p.items():
        for j, y in q.items():
            s = out.get(i + j, 0) + x * y
            if s:
                out[i + j] = s
            else:
                out.pop(i + j, None)
    return out


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, v in q.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def series_mul(a: dict, b: dict, order: int) -> dict:
    out: dict[int, dict] = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            if e1 + e2 <= order:
                out[e1 + e2] = poly_add(out.get(e1 + e2, {}), poly_mul(v1, v2))
    return out


def main() -> int:
    a = {e: {0: Fraction(1, e + 1), 1: Fraction(e % 5 - 2, e * e + 3), 2: Fraction(1, 7)}
         for e in range(ORDER + 1)}
    b = {e: {0: Fraction(e % 3 + 1, e + 2), 1: Fraction(1, e + 5)} for e in range(ORDER + 1)}
    x = a
    for _ in range(FACTORS):
        x = series_mul(x, b, ORDER)
    # q^0 w^0: a_0(0) b_0(0)^FACTORS = (1/2)^FACTORS
    return 0 if len(x) == ORDER + 1 and x[0][0] == Fraction(1, 2 ** FACTORS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
