"""Run one simulation and print the daily epidemic curve.

The shipped default config: a calibrated mobility scale, proactive
tracing with the noisy oracle predictor, and fitted risk thresholds. The
finished world keeps each agent's disease course, state and app-layer
health codes, and a report per day; the metrics below read them. What a
day computed and dropped, such as the estimates, an observer passed to
``run`` sees as each day ends.
"""

from pathlib import Path

import numpy as np

from pctsim import load_config, run
from pctsim.metrics import (
    effective_contacts_per_agent_day,
    estimate_r,
    false_quarantine_fraction,
)

default_yaml = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
cfg = load_config(default_yaml).replace(population_size=1000, rng_seed=42)

trace = run(cfg)

print(f"run {trace.run_id}: {trace.population} agents, "
      f"{trace.app_ids.size} app users")
print(f"{'day':>4} {'S':>5} {'E':>4} {'I':>4} {'R':>4} "
      f"{'new':>4} {'enc':>6} {'quar':>5} {'msgs':>6}")
for rep in trace.day_reports:
    if rep.day % 5 == 0:
        print(f"{rep.day:>4} {rep.s:>5} {rep.e:>4} {rep.i:>4} {rep.r:>4} "
              f"{rep.new_cases:>4} {rep.encounters:>6} {rep.quarantined:>5} "
              f"{rep.messages:>6}")

r = estimate_r(trace.events, trace.recovered_ids())
print()
print(f"cumulative cases    {len(trace.events)}")
print(f"mean R              {r:.3f}" if not np.isnan(r) else "mean R              n/a")
print(f"contacts/agent-day  {effective_contacts_per_agent_day(trace):.3f}")
print(f"false quarantine    {false_quarantine_fraction(trace):.4f}")
