"""Sweep the melt temperature and watch the optimum track the power level.

For each heat flux the melt temperature is swept in 1 degC steps while
every other Solder 174 property stays fixed. The peak-temperature curve
shows two flat plateaus (fully-liquid and never-melting regimes) with a
sharp dip between them; the dip bottoms out where the melt band straddles
the chip's natural temperature swing, and it moves to hotter melt points
as the duty power rises.

Runs at the COARSE fidelity (10 um mesh, 25 ms step) so the four sweeps
finish in a few minutes; pass --fine for REFERENCE (5 um, 10 ms). Results
land in out/tm_sweep/.
"""

import argparse

from pcmopt.solver import COARSE, REFERENCE
from pcmopt.studies import run_tm_study

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--fine", action="store_true",
                    help="run at the reference mesh and step (slower)")
    args = ap.parse_args()

    res = run_tm_study(power_levels=(50e3, 75e3, 100e3, 125e3), tm_step=1.0,
                       out_dir="out/tm_sweep",
                       fidelity=REFERENCE if args.fine else COARSE)
    print(f"{'power kW/m^2':>14} {'best T_m (peak)':>16} "
          f"{'best T_m (swing)':>17}")
    for power, d in res.items():
        print(f"{power / 1e3:14.0f} {d['opt_T_m_for_T_o_max']:16.0f} "
              f"{d['opt_T_m_for_T_osc']:17.0f}")
