"""The local-lemma engine: budgets and constructive resampling.

The feasibility budget e * p * (d + 1) < 1 certifies that a solution exists;
it only kicks in at astronomically large window caps (log-space arithmetic
keeps those evaluable).  The constructive resampler succeeds far earlier:
this script sweeps the window cap factor D on a segment and shows where the
dynamics flip from stalling to converging, then certifies a decomposition
end to end.
"""

import time

import padlab as pl

print("== closed-form budgets ==")
for D in (20.0, 1e3, 1e10, 1e20):
    eps = (D + 3) ** -0.9
    budget = pl.texp_csp_bounds(pl.TexpSchedule(N=2, r=1.0, eps=eps, D=D))
    print(f"D = {D:8.0e}: log p-bound {budget.log_p_bound:10.2f}, "
          f"log(d+1) {budget.log_d_plus_one:7.2f}, feasible: {budget.feasible}")

D_star, _ = pl.find_min_D(2, 2, alpha_prime=0.4)
print(f"smallest certified-feasible D for N=2, m=2: {D_star:.3e}")

print("\n== resampling on segment:3000, truncated-exponential radii ==")
space = pl.integer_segment(3000)
net = pl.build_net(space, 3, 3)
for D in (20.0, 50.0, 100.0, 200.0):
    sched = pl.TexpSchedule(N=3, r=3.0, eps=0.05, D=D)
    csp = pl.csp_from_schedule(net, sched)
    t0 = time.time()
    res = pl.moser_tardos(net, csp, seed=0, max_rounds=600)
    state = f"converged in {res.rounds} rounds" if res.success else \
        f"stalled with {res.residual_violations} violations"
    print(f"D = {D:5g}: initial violations {res.violated_history[0]:3d}, {state} "
          f"({time.time()-t0:.1f}s)")

print("\n== certified end-to-end run at D = 100 ==")
sched = pl.TexpSchedule(N=3, r=3.0, eps=0.05, D=100.0)
run = pl.certify_decomposition(net, sched, seed=1)
pd = run.decomposition
print(f"decomposition: {pd.m} layers, claim ({pd.R:g}, {pd.D:g}), "
      f"verifier says: {run.report.passed}")
print(f"rounds used: {run.meta['rounds']}; violated-count history head: "
      f"{run.meta['violated_history'][:8]}")
