"""Route map rendering as standalone SVG 1.1 documents.

The drawing is a plain overhead view: pickups are circles, deliveries are
triangles, charging stations are diamonds, depots and agent starts are
squares.  Each agent's route is a polyline in its own color.  When a solution
is supplied, pickup/delivery markers of rejected requests are drawn
semi-transparent so gaps in coverage stand out.
"""

from __future__ import annotations

from .graph import ExpandedGraph
from .instance import Instance
from .solution import Solution

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#17becf", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
)

CANVAS = 720.0
MARGIN = 40.0
REJECTED_OPACITY = 0.3


def render_svg(inst: Instance, graph: ExpandedGraph,
               solution: Solution | None = None) -> str:
    """The SVG map; ValueError naming the first node without coordinates."""
    points = [graph.position(i) for i in range(graph.n_nodes)]
    if None in points:
        raise ValueError(f"{graph.label(points.index(None))} has no coordinates")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    scale = (CANVAS - 2.0 * MARGIN) / span

    def at(i):
        x, y = graph.position(i)
        # flip y so north is up
        return (MARGIN + (x - lo_x) * scale,
                CANVAS - MARGIN - (y - lo_y) * scale)

    accepted = None
    if solution is not None:
        accepted = {r for r, flag in enumerate(solution.accepted) if flag}

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS:.0f}" height="{CANVAS:.0f}" '
        f'viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">',
        f'<rect width="{CANVAS:.0f}" height="{CANVAS:.0f}" fill="white"/>',
    ]

    if solution is not None:
        for plan in solution.plans:
            color = PALETTE[plan.agent % len(PALETTE)]
            nodes = [graph.start_node(plan.agent)] + [
                v.node for v in plan.visits]
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(at, nodes))
            if len(nodes) > 1:
                out.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="2"/>')

    def marker(i, shape, fill, opacity=1.0, title=""):
        x, y = at(i)
        op = "" if opacity >= 1.0 else f' opacity="{opacity}"'
        if shape == "circle":
            body = f'<circle cx="{x:.2f}" cy="{y:.2f}" r="6" fill="{fill}"{op}>'
        elif shape == "square":
            body = (f'<rect x="{x - 6:.2f}" y="{y - 6:.2f}" width="12" '
                    f'height="12" fill="{fill}"{op}>')
        elif shape == "triangle":
            pts = f"{x:.2f},{y - 7:.2f} {x - 6:.2f},{y + 5:.2f} {x + 6:.2f},{y + 5:.2f}"
            body = f'<polygon points="{pts}" fill="{fill}"{op}>'
        else:  # diamond
            pts = (f"{x:.2f},{y - 7:.2f} {x + 7:.2f},{y:.2f} "
                   f"{x:.2f},{y + 7:.2f} {x - 7:.2f},{y:.2f}")
            body = f'<polygon points="{pts}" fill="{fill}"{op}>'
        tag = body.split(" ", 1)[0][1:]
        out.append(f"{body}<title>{title}</title></{tag}>")

    for k in range(len(inst.agents)):
        marker(graph.start_node(k), "square",
               PALETTE[k % len(PALETTE)], title=f"agent {k} start")
    for d in range(len(graph.hf)):
        marker(graph.hub_node(d), "square", "#444444", title=f"depot {d}")
    for s in range(len(inst.stations)):
        marker(graph.f_node(s, 0), "diamond", "#f0a500",
               title=f"station {s}")
    for r in range(len(inst.requests)):
        opacity = 1.0
        if accepted is not None and r not in accepted:
            opacity = REJECTED_OPACITY
        marker(graph.pickup_node(r), "circle", "#2060c0",
               opacity=opacity, title=f"pickup {r}")
        marker(graph.delivery_node(r), "triangle", "#c03030",
               opacity=opacity, title=f"delivery {r}")

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(inst: Instance, graph: ExpandedGraph, path: str,
              solution: Solution | None = None) -> None:
    text = render_svg(inst, graph, solution)  # before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
