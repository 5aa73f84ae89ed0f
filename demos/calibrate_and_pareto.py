"""Calibrate the operating point, then sweep mobility for a Pareto view.

Calibration pins the no-tracing baseline at a realistic contact budget,
then fits risk thresholds to the prediction traffic observed there. The
sweep afterwards shows each policy's transmission/restriction trade-off
around that point.
"""

import csv
import tempfile
from pathlib import Path

from pctsim.cli import calibrate
from pctsim.cli import main as cli_main
from pctsim.core import SimConfig

cfg = SimConfig(population_size=1500, num_days=40, rng_seed=0)
result = calibrate(cfg, target_contacts=5.61, seeds=[0, 1, 2], tolerance=0.5)

print(f"mobility scale   {result['mobility_scale']:.4f}")
print(f"contacts         {result['achieved_contacts']:.3f} "
      f"(target {result['target_contacts']} +- {result['tolerance']})")
print(f"mean R           {result['mean_r']:.3f}")
print("thresholds       " + ", ".join(f"{t:.4f}" for t in result["thresholds"][:4])
      + ", ...")
print()

# the same sweep is available as a command; write a config and call it
tmp = Path(tempfile.gettempdir())
with open(tmp / "pareto_demo.yaml", "w") as fh:
    fh.write("population_size: 1500\nnum_days: 40\n")

scale = result["mobility_scale"]
scales = ",".join(f"{scale * f:.3f}" for f in (0.8, 1.0, 1.2))
rc = cli_main(["pareto", "--config", str(tmp / "pareto_demo.yaml"),
               "--scales", scales, "--seeds", "0,1",
               "--policies", "no_tracing,pct", "--jobs", "1",
               "--out", str(tmp / "pareto_demo.csv")])
assert rc == 0

with open(tmp / "pareto_demo.csv") as fh:
    rows = list(csv.DictReader(fh))
print(f"{'policy':<12} {'scale':>7} {'seed':>4} {'contacts':>9} {'R':>9}")
for row in rows:
    print(f"{row['policy']:<12} {float(row['mobility_scale']):>7.3f} "
          f"{row['seed']:>4} {float(row['contacts']):>9.3f} "
          f"{float(row['r']):>9.3f}")
