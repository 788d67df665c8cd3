"""One step of the scheme, node by node and cell by cell, in plain floats,
written from the model rather than from the junction table.  Each formula
does the floating-point operations of the table's array pass in the same
order, so `solver.advance_step` must match it bit for bit."""

from bufferlane.network import DEMAND_PROPORTIONAL, NodeKind

TOL = 1e-12  # a load within TOL of 0 (r_max) counts as empty (full)


def demand(rho):
    """The most a cell sends downstream: f(min(rho, 1/2))."""
    m = min(rho, 0.5)
    return m * (1.0 - m)


def supply(rho):
    """The most a cell absorbs: f(max(rho, 1/2))."""
    m = max(rho, 0.5)
    return m * (1.0 - m)


def cell_averages(edge, pieces):
    """A road's exact cell averages of a piecewise-constant profile, cell
    by cell: the pieces' v times their overlap with the cell, summed in
    piece order, over h."""
    h = edge.h
    ends = [x for x, _ in pieces[1:]] + [edge.length]
    averages = []
    for i in range(edge.cells):
        lo, hi, acc = i * h, (i + 1) * h, 0.0
        for (x, v), end in zip(pieces, ends):
            acc += v * max(min(hi, end) - max(lo, x), 0.0)
        averages.append(acc / h)
    return averages


def inflow_at(profile, t):
    """The value of the last (time, value) breakpoint reached by time t,
    up to 1e-15, else of the first."""
    value = profile[0][1]
    for t_k, v_k in profile:
        if t >= t_k - 1e-15:
            value = v_k
    return value


def node_step(node, last, first, r, tau, pooled, t):
    """Node `node` at time t with load r, given its incoming roads' last
    and its outgoing roads' first cells: (the outflow of each incoming
    road, the inflow of each outgoing road, f_in, f_out, the new load)."""
    kind, mu, r_max = node.kind, node.mu, node.r_max
    d, s = [demand(x) for x in last], [supply(x) for x in first]
    if kind is NodeKind.SINK:  # absorbs f of its road's last cell
        q = min(d[0], supply(last[0]))
        return [q], [], q, q, r
    if kind is NodeKind.SOURCE:  # a queue fed by the whole inflow
        d = [inflow_at(node.inflow, t)]
    c = alpha = (1.0,)
    if kind is NodeKind.TWO_TO_ONE:
        c, total = node.priority, d[0] + d[1]
        if c == DEMAND_PROPORTIONAL:
            c = (d[0] / total, d[1] / total) if total > 0.0 else (0.5, 0.5)
    if kind is NodeKind.ONE_TO_TWO:
        alpha = node.alpha
    # the buffer sends mu unless empty and takes mu unless full
    if r > TOL:
        d_b = mu
    elif pooled:
        d_b = min(sum(d), mu)
    else:
        d_b = sum(min(x, c_j * mu) for x, c_j in zip(d, c))
    s_b = mu if r < r_max - TOL else sum(
        min(x, a_j * mu) for x, a_j in zip(s, alpha))
    outs = [min(c_j * s_b, x) for x, c_j in zip(d, c)]
    ins = [min(a_j * d_b, x) for x, a_j in zip(s, alpha)]
    f_in = d[0] if kind is NodeKind.SOURCE else sum(outs)
    f_out = sum(ins)
    # pooled merges may go below 0; any other load stops at its bounds
    lower = -float("inf") if pooled and kind is NodeKind.TWO_TO_ONE else 0.0
    new = r + (f_in - f_out) * tau
    if new < lower:  # scale what leaves to empty the buffer exactly
        scale = (r / tau + f_in) / f_out
        f_out, ins = f_out * scale, [q * scale for q in ins]
    elif new > r_max:  # scale what enters to fill it exactly
        scale = ((r_max - r) / tau + f_out) / f_in
        f_in, outs = f_in * scale, [q * scale for q in outs]
    new = r + (f_in - f_out) * tau
    if lower == 0.0 or new >= -TOL:
        new = min(max(new, 0.0), r_max)
    return outs, ins, f_in, f_out, new


def step(network, tau, pooled, rho, r, n):
    """Step n from the densities `rho` (edge id -> list of cell values)
    and the loads `r` (node id -> float): the flows in `JunctionTable`
    order (q_in, q_out per edge, f_in, f_out per node), then the new
    loads and the new densities of every cell, in network order."""
    q_in, q_out, f_in, f_out, loads = {}, {}, {}, {}, []
    for v, node in network.nodes.items():
        ins, outs = network.in_edges[v], network.out_edges[v]
        q_ends, q_starts, f_in[v], f_out[v], new = node_step(
            node, [rho[e][-1] for e in ins], [rho[e][0] for e in outs], r[v],
            tau, pooled, n * tau)
        q_out.update(zip(ins, q_ends))
        q_in.update(zip(outs, q_starts))
        loads.append(new)
    cells = []
    for e, edge in network.edges.items():
        u, lam = rho[e], tau / edge.h
        F = [q_in[e], *(min(demand(a), supply(b)) for a, b in zip(u, u[1:])),
             q_out[e]]
        cells += [min(max(x - (F[i + 1] - F[i]) * lam, 0.0), 1.0)
                  for i, x in enumerate(u)]
    flows = [*map(q_in.get, network.edges), *map(q_out.get, network.edges),
             *map(f_in.get, network.nodes), *map(f_out.get, network.nodes)]
    return flows, loads, cells
