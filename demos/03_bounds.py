"""Permanent bounds sandwiching the exact count.

For a d-regular graph the van der Waerden bound gives
per(A) >= n! (d/n)^n while Bregman's bound gives per(A) <= (d!)^(n/d);
both are evaluated in the log domain and compared against the exact
permanent.
"""

import math

import ndlham as nh

for name, g in [
    ("K6", nh.complete(6)),
    ("Petersen", nh.petersen()),
    ("random 6-regular n=12", nh.random_regular(12, 6, seed=0)),
]:
    rep = nh.bounds_report(g)
    per = rep.exact.get("permanent")
    print(f"{name}: n={rep.n} d={rep.d} lambda={rep.lam:.4f}")
    print(f"  per(A) = {per}   log per = {math.log(per):.4f}" if per else "  (no exact permanent)")
    for k, v in rep.bounds.items():
        print(f"  {k:>22} = {v:.4f}  (exp: {math.exp(v):.4g})")
    print(f"  inequalities: {rep.ok}  all_ok={rep.all_ok}\n")
