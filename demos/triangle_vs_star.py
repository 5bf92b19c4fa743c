"""Two different graphs, one scattering matrix.

A triangle with a lead at each corner and a single vertex carrying
three loops plus three leads produce identical total scattering
matrices at every momentum, provided the star's 9x9 vertex matrix is
wired from the triangle's corner matrices the right way. So an
observer outside cannot tell the graphs apart: with loops allowed,
scattering data does not determine the graph.

The script prints the maximum entrywise deviation over a momentum
sweep, then shows one S_tot side by side.
"""

import numpy as np

from graphscatter import mode_index, scattering_grid, total_scattering, triangle_and_star_pair


def main():
    tri, star = triangle_and_star_pair(0.7, 1.1, 1.3)
    tri_idx = mode_index(tri.graph)
    star_idx = mode_index(star.graph)

    print("triangle: %d vertices, %d internal edges, %d leads" % (
        tri.graph.vertex_count, tri.graph.n_internal, tri.graph.n_external))
    print("star:     %d vertex,  %d loops,          %d leads" % (
        star.graph.vertex_count, star.graph.n_internal, star.graph.n_external))
    print()

    momenta = np.linspace(0.2, 6.0, 25)
    s_tri, _ = scattering_grid(tri.graph, tri.locals, tri_idx, momenta)
    s_star, _ = scattering_grid(star.graph, star.locals, star_idx, momenta)
    worst = float(np.max(np.abs(s_tri - s_star)))
    print("max |S_triangle - S_star| over 25 momenta: %.3e" % worst)
    print()

    p = 1.7
    s = total_scattering(tri.graph, tri.locals, tri_idx, p).matrix
    np.set_printoptions(precision=4, suppress=True)
    print("S_tot(p = %.1f), real part:" % p)
    print(s.real)
    print("imaginary part:")
    print(s.imag)


if __name__ == "__main__":
    main()
