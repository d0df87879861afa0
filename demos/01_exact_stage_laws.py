"""Walk the edge-deletion process through its exact stage laws.

The deletion process started at the complete graph removes one edge per
stage, each edge weighted by the count of regular graphs that survive its
removal.  Conditioned on the stage, the law of the evolving graph has a
closed form: probability proportional to the number of d-regular spanning
subgraphs.  Here we push an exact point mass through the conditioned kernel
and compare against that closed form, stage by stage, as exact rationals.
"""

from fractions import Fraction

from sandwichlab import (
    ModelParams,
    closed_form_law,
    exact_marginal,
    exact_stage_laws,
    format_graph_literal,
)

params = ModelParams(n=5, d=2)
print(f"n={params.n}, d={params.d}: {params.steps_upper} deletion stages, "
      f"{params.steps_lower} addition stages\n")

for direction in ("delete", "add"):
    print(f"--- {direction} direction ---")
    for stage, kernel in enumerate(exact_stage_laws(params, direction)):
        closed = closed_form_law(params, stage, direction)
        agree = kernel.probs == closed.probs
        print(f"stage {stage}: support {len(kernel.probs):3d} graphs, "
              f"edge count {kernel.edge_count():2d}, "
              f"kernel == closed form: {agree}")
        assert agree
    print()

final = exact_marginal(params, params.steps_upper, "delete")
print("final stage law (the uniform regular-graph distribution):")
for key, graph in sorted(final.graphs.items())[:4]:
    print(f"  P = {final.probs[key]}   {format_graph_literal(graph)}")
print(f"  ... {len(final.probs) - 4} more atoms, each {Fraction(1, 12)}")
