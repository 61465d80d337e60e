"""The loop of ``levelmc.indicator.adaptive_hierarchy``, replayed with each
step's mesh, solution and indicators kept.

``adaptive_hierarchy`` keeps only the numbers of a step (estimator, QoI,
DOF), so the tests that look inside a step build the steps here;
``test_indicator.py`` checks that the replay gives the hierarchy's numbers
bit for bit.
"""

from levelmc.coefficient import CoefficientSample
from levelmc.fem import assemble, solve
from levelmc.indicator import doerfler_mark, residual_indicators
from levelmc.mesh import aligned_structured_mesh, bisect_refine, structured_unit_square

_BOX = CoefficientSample("box", 0.4, 0.6, 300.0, length=0.3)

# (coefficient, initial mesh, refinements) of the replayed hierarchies
REPLAYED = {
    "contrast-300": (CoefficientSample("box", 0.47, 0.53, 300.0, length=0.26),
                     structured_unit_square(7), 6),
    "concentration": (_BOX, structured_unit_square(15), 5),
    "aligned": (_BOX, aligned_structured_mesh(*_BOX.break_lines(), 6), 4),
}


def replay_hierarchy(coeff, mesh, refinements, theta=0.5):
    """(mesh, solution, indicators) of steps 0..refinements for the source f = 1."""
    steps = []
    for _ in range(refinements + 1):
        if steps:
            mesh = bisect_refine(mesh, doerfler_mark(steps[-1][2], theta))
        a_k = coeff.element_values(mesh)
        sol = solve(assemble(mesh, a_k))
        steps.append((mesh, sol, residual_indicators(sol, a_k)))
    return steps
