"""Verifying the bundled K-theory tables.

The dataset transcribes the published tables row by row.  The gamma_ab
column is recomputed here from scratch and matched per twist family; the
K columns are data only, and feed the torsion-doubling survey: away from
the prime 3, the torsion of K0/<[id]> tends to be two copies of gamma_ab.
"""

from tripres.catalog import invariant_catalog
from tripres.tables import (
    heuristic_survey,
    load_dataset,
    twice_heuristic,
    verify_abelianizations,
)

ds = load_dataset()
print(f"dataset: {len(ds.rows)} rows over q in {ds.qs()}")

row = ds.get(2, "A.2")
print(f"\nsample row q=2 A.2: gamma_ab={row.gamma_ab} K0={row.k0.normalized()} "
      f"K0/<[id]>={row.k0_mod_id.normalized()}  doubling: {twice_heuristic(row)}")

print("\nrecomputing gamma_ab for every q and matching the tables:")
report = verify_abelianizations(ds, {q: invariant_catalog(q) for q in ds.qs()})
for sec in report.sections:
    status = "ok" if sec.ok else "MISMATCH"
    print(f"  q={sec.q:>2}: {len(sec.matched)} families matched, "
          f"{len(sec.extra_orbits)} inverse-partner extras, {len(sec.skipped)} rows skipped [{status}]")
print("all published families reproduced:", report.ok)

print("\ntorsion-doubling survey:")
sv = heuristic_survey(ds)
print(f"  holds: {len(sv.holds)}  fails: {len(sv.fails)}  vacuous: {len(sv.vacuous)}")
print("  failing rows outside q=3:", sorted(sv.non_q3_failures))
print("  matches the published exception list {B.2, Voskuil}:", sv.matches_published)
print("  (the q=11 Semiregular 2 family has K0/<[id]> torsion equal to *three*")
print("   copies of gamma_ab away from 3, so it fails the doubling heuristic too)")
