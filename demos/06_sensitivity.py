"""Which PCM property actually matters? Perturb each one by +/-10%.

Starting from the Solder 174 reference channel, each thermophysical
property is nudged up and down 10% (melt temperature is scaled through
its margin above ambient) and the mean absolute shift of the two headline
metrics is reported. The melt temperature towers over everything else;
conductivity barely registers because the 100 x 50 um channel is small
enough that conduction through the surrounding silicon dominates.
"""

from pcmopt.geometry import Case
from pcmopt.studies import sensitivity

if __name__ == "__main__":
    out = sensitivity(Case())
    print(f"{'property':>12} {'|dT_o_max| C':>14} {'|dT_osc| C':>12}")
    for prop, d in sorted(out.items(), key=lambda kv: -kv[1]["dT_o_max"]):
        print(f"{prop:>12} {d['dT_o_max']:14.3f} {d['dT_osc']:12.3f}")
