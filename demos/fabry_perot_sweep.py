"""Two partially reflecting mirrors on a line.

Sweeps momentum and prints transmission and reflection probabilities
next to the textbook closed forms

    t_tot = t^2 e^{ipd} / (1 - r^2 e^{2ipd})
    r_tot = r (1 - e^{2ipd}) / (1 - r^2 e^{2ipd})

so you can see the resonance comb sharpen as the mirrors get better.
"""

import numpy as np

from graphscatter import canonical, mode_index, scattering_grid


def closed_forms(r, d, p):
    t = np.sqrt(1.0 - r * r)
    phase = np.exp(2j * p * d)
    den = 1.0 - r * r * phase
    return t * t * np.exp(1j * p * d) / den, r * (1.0 - phase) / den


def main():
    d = 1.0
    for r in (0.3, 0.6, 0.9):
        fix = canonical("fabry_perot", r=r, d=d)
        idx = mode_index(fix.graph)
        print("mirror reflectivity r = %.1f" % r)
        print("   p      |T|^2     |R|^2    closed-form gap")
        momenta = np.linspace(0.2, 2 * np.pi, 13)
        stack, _ = scattering_grid(fix.graph, fix.locals, idx, momenta)
        for p, s in zip(momenta, stack):
            t_ref, r_ref = closed_forms(r, d, p)
            gap = max(abs(s[1, 0] - t_ref), abs(s[0, 0] - r_ref))
            print(
                "  %5.3f   %7.5f   %7.5f   %.2e"
                % (p, abs(s[1, 0]) ** 2, abs(s[0, 0]) ** 2, gap)
            )
        print()


if __name__ == "__main__":
    main()
