"""Steklov smoothing: contraction toward constants and multiplication bound.

The cell-average smoother S_eps damps a function toward its local mean;
its distance to the identity is controlled by eps times the cell radius
times the gradient, and multiplication by an oscillating factor after
smoothing is bounded by the factor's cell L2 norm.  S_eps runs as the
corrector runs it, on the extension of the interior nodes of the unit box
(smooth); each left side is read on the nodes farther than eps r1 + h
from the boundary, where the average reads interior nodes only.
"""

import numpy as np

from oscillat import build_extension, mesh_for, smooth, unit_lattice

lat = unit_lattice(1)
N = 512
mesh = mesh_for([1.0], 1 / N)         # the nodes k / N, k = 1 .. N - 1
ext = build_extension(mesh, 0.25 * lat.r1)
x = mesh.axes()[0]
rng = np.random.default_rng(1)


def inner(values, eps):
    """values at the nodes beyond the reach eps r1 + h of the boundary"""
    reach = eps * lat.r1 + mesh.h[0]
    return values[(x > reach) & (x < 1.0 - reach)]


ks = np.arange(1, 9)
c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
u = (c * np.exp(2j * np.pi * np.outer(x, ks))).sum(axis=1)
du = (c * 2j * np.pi * ks * np.exp(2j * np.pi * np.outer(x, ks))).sum(axis=1)

print("smoothing error vs the eps * r1 * |Du| bound")
print(f"{'eps':>10} {'|S u - u|':>12} {'bound':>12} {'ratio':>8}")
for eps in (1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64):
    err = np.linalg.norm(inner(smooth(u, ext, lat, eps)[:, 0] - u, eps))
    bound = eps * lat.r1 * np.linalg.norm(du)
    print(f"{eps:>10.4f} {err:>12.4e} {bound:>12.4e} {err / bound:>8.3f}")

# a character of the eps-cell integrates to zero over the cell
eps = 1 / 4
char = np.exp(2j * np.pi * x / eps)
print(f"\ncell mean of a character (exact 0): "
      f"{np.abs(inner(smooth(char, ext, lat, eps), eps)).max():.2e}")

# multiplication bound: |Phi^eps S_eps u| <= |Phi|_L2(cell) |u| on the
# unit cell, regardless of how fast Phi^eps oscillates
phi = 2.0 + np.sin(2 * np.pi * x) + 0.5 * np.cos(4 * np.pi * x)
phi_l2 = np.sqrt(np.mean(phi ** 2))
print("\nmultiplication bound")
for eps in (1 / 4, 1 / 16):
    su = smooth(u, ext, lat, eps)[:, 0]
    phi_eps = np.interp((x / eps) % 1.0, x, phi, period=1.0)
    lhs = np.linalg.norm(inner(phi_eps * su, eps))
    rhs = phi_l2 * np.linalg.norm(u)
    print(f"  eps={eps:<8.4f} |Phi^eps S u| = {lhs:10.4f} "
          f"<= {rhs:10.4f} = |Phi|_L2 |u|")
