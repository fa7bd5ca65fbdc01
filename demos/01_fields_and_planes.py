"""Fields and Singer planes.

Walks through the deterministic field construction for a few q, the table
of powers of the generator x that holds each field, the trace read from that
table, and the trace-zero perfect difference set that models the projective
plane PG(2,q) on the cyclic group Z_N.
"""

from tripres.gf import SUPPORTED_Q, build_field, poly_str
from tripres.plane import build_plane, check_difference_set

print("== The cubic extension fields ==")
for q in (2, 3, 4):
    f = build_field(q)
    print(f"q={q}: GF({f.p}^{f.degree}) with modulus {poly_str(f.modulus)}, generator x")

f = build_field(2)
print(f"\nGF(8) as the powers of x modulo {poly_str(f.modulus)}:")
for k, coeffs in enumerate(f.powers):
    print(f"  x^{k} = {poly_str(coeffs)}")
trace = [sum(c) % f.p for c in zip(f.powers[1], f.powers[2], f.powers[4])]
print(f"Tr(x) = x + x^2 + x^4 = {poly_str(trace)}, so 1 is in D")

print("\n== Trace-zero difference sets ==")
for q in SUPPORTED_Q:
    plane = build_plane(q)
    report = check_difference_set(plane)
    d = " ".join(map(str, plane.difference_set[:8]))
    more = " ..." if len(plane.difference_set) > 8 else ""
    print(f"q={q:>2}: N={plane.n_points:>3}  D = {d}{more}  perfect={report.perfect_ok}  qD=D: {report.multiplier_ok}")

plane = build_plane(2)
print("\nThe Fano plane: lines are D + k")
for k in range(plane.n_points):
    print(f"  line {k}: {plane.line_points(k)}")
print("point 1 on line 0:", plane.incident(1, 0), " point 0 on line 0:", plane.incident(0, 0))
