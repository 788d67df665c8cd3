"""One step of the scheme, node by node and cell by cell, in plain floats,
written from the model rather than from the junction table.  Each formula
does the floating-point operations of the table's array pass in the same
order, so `solver.advance_step` must match it bit for bit.

The car steps are here too, as readable functions of a road's cells that
call the flux law and the named wave formulas; the tracker's steps write
them out inline with the same operations in the same order, and must
match them bit for bit as well."""

import math

from bufferlane.errors import HorizonExceeded, ZeroSpeedAtBoundary
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


def flux(rho):
    """Flow f(rho) = rho (1 - rho)."""
    return rho * (1.0 - rho)


def velocity(rho):
    """Car speed v(rho) = 1 - rho."""
    return 1.0 - rho


def flux_derivative(rho):
    """Wave speed f'(rho) = 1 - 2 rho."""
    return 1.0 - 2.0 * rho


def shock_intersection(x, x_i, rho_minus, rho_plus):
    """Hit point (tau_bar, x_bar) of the car with a shock starting at x_i,
    or None when the car's speed and the shock's round to the same value
    (rho_plus tiny): the car then never reaches the shock."""
    if rho_minus >= rho_plus:
        raise ValueError(f"{rho_minus} >= {rho_plus}")
    lam = (flux(rho_plus) - flux(rho_minus)) / (rho_plus - rho_minus)
    closing = velocity(rho_minus) - lam
    if closing == 0.0:
        return None
    tau_bar = (x_i - x) / closing
    return tau_bar, x + velocity(rho_minus) * tau_bar


def fan_coefficient(tau_bar, x_bar, x_i):
    """Coefficient c of the in-fan path x(t) = x_i + t - c sqrt(t), wave
    origin at (0, x_i), that the car enters at (tau_bar, x_bar)."""
    if tau_bar <= 0.0:
        raise ValueError(f"tau_bar {tau_bar} must be positive")
    return (tau_bar + x_i - x_bar) / math.sqrt(tau_bar)


def rarefaction_exit(coeff, x_i, rho_plus):
    """Exit point (tau2, x2) of the in-fan path with coefficient `coeff`.

    Returns None when 1 - f'(rho_plus) = 2 rho_plus rounds to 0: the
    downstream front then moves at the free-flow speed and the car can
    never overtake it.
    """
    gap = 1.0 - flux_derivative(rho_plus)
    if gap == 0.0:
        return None
    tau2 = (coeff / gap) ** 2
    return tau2, x_i + flux_derivative(rho_plus) * tau2


def naive_step(x, cells, h, tau):
    """Euler step at the speed of the Godunov cell containing x."""
    i = min(int(x / h), len(cells) - 1)
    return x + tau * velocity(cells[i])


def complex_step(x, cells, h, tau):
    """Piecewise-exact step through at most one wave: the Riemann fan or
    shock starting at the grid point ahead of the car, behind the
    half-cell split.  A wave whose closing speed on the car rounds to 0
    never reaches it within the step."""
    n_cells = len(cells)
    i = int(math.floor(x / h + 0.5))
    if x < i * h:  # first half: wave origin x_i between cells i-1 and i
        origin = i * h
        rm = cells[i - 1]
        rp = cells[i] if i < n_cells else rm
    else:  # second half: wave origin x_{i+1}
        origin = (i + 1) * h
        rm = cells[i] if i < n_cells else cells[-1]
        rp = cells[i + 1] if i + 1 < n_cells else rm
    if rm == rp:
        return x + tau * velocity(rm)
    if rm < rp:  # shock
        hit = shock_intersection(x, origin, rm, rp)
        tau_bar, x_bar = (math.inf, None) if hit is None else hit
    else:  # rarefaction: left front moves at f'(rm)
        closing = velocity(rm) - flux_derivative(rm)
        tau_bar = (origin - x) / closing if closing != 0.0 else math.inf
    if tau_bar >= tau:  # the wave does not reach the car within the step
        return x + tau * velocity(rm)
    if rm < rp:
        return x_bar + velocity(rp) * (tau - tau_bar)
    coeff = fan_coefficient(tau_bar, x + velocity(rm) * tau_bar, origin)
    exit_point = rarefaction_exit(coeff, origin, rp)
    if exit_point is None or exit_point[0] >= tau:
        return origin + tau - math.sqrt(tau) * coeff
    tau2, x2 = exit_point
    return x2 + velocity(rp) * (tau - tau2)


def drive_leg(log, edge, n, x, step, end_tol=1e-14):
    """A car from x on `edge` at t^n, stepped by `step` on each step's row
    of the road's history as a list until it crosses the road end less
    `end_tol`, the last step cut at the end at the last cell's speed: the
    arrival event (n_hat, tau_hat), or the class of the error that ends
    the leg, and the positions at t^{n+1}, t^{n+2}, ..."""
    rows, b = log.rho[edge.id], edge.length
    end, xs = b - end_tol, []
    while x < end:
        if n >= log.steps:
            return HorizonExceeded, xs
        cells = rows[n].tolist()
        x_new = step(x, cells, edge.h, log.tau)
        if x_new >= end:
            v = velocity(cells[-1])
            if v <= 0.0:
                return ZeroSpeedAtBoundary, xs
            return (n, min(max((b - x) / v, 0.0), log.tau)), xs
        n, x = n + 1, x_new
        xs.append(x)
    return (n, 0.0), xs


def count_arrival(log, path, start_x, start_time):
    """When a car leaving `start_x` on road `path[0]` at the grid time
    `start_time` reaches the end of `path`, from cumulative counts alone
    (Newell, Transp. Res. B 27, 1993), no car step involved.  No car
    overtakes another, so the car leaves a road once as much has flowed
    out of its end as lay ahead of it on entry, Q_out(t) = Q_out(t_e) +
    m_0, and leaves a node once the node has released the load r_0 queued
    ahead of it on arrival, F_out(t) = F_out(t_a) + r_0.  The counts, the
    road masses and the loads are linear between grid times, as the
    scheme's fluxes are constant over a step.

    The rule needs traffic ahead of the car: on an empty road it gives
    the entry time, so a leg takes at least its length (speed <= 1).  A
    start inside a cell takes the part of the cell ahead of the car."""
    tau, t, x = log.tau, start_time, start_x
    for k, eid in enumerate(path):
        edge = log.network.edges[eid]
        if k:  # the node the road leaves releases the car
            v = edge.source
            n = min(int(t / tau), log.steps - 1)
            queued = log.buffers[v].item(n) + (t - n * tau) * (
                log.node_inflow[v].item(n) - log.node_outflow[v].item(n))
            t, x = _count_until(log, log.node_outflow[v], t, queued), 0.0
        n = min(int(t / tau), log.steps - 1)
        h = edge.h
        ahead = sum(rho * max(0.0, min(h, (i + 1) * h - x))
                    for i, rho in enumerate(log.rho[eid][n].tolist()))
        ahead += (t - n * tau) * (log.q_in[eid].item(n)
                                  - log.q_out[eid].item(n))
        t = max(_count_until(log, log.q_out[eid], t, ahead),
                t + edge.length - x)
    return t


def _count_until(log, flow, t, amount):
    """The time from t by which `amount` has passed at the step-wise
    constant `flow`; HorizonExceeded if not within the run."""
    tau = log.tau
    n = min(int(t / tau), log.steps - 1)
    while amount > 1e-15:
        end, f = (n + 1) * tau, flow.item(n)
        if f > 0.0 and amount <= (end - t) * f:
            return t + amount / f
        amount -= (end - t) * f
        t, n = end, n + 1
        if n >= log.steps:
            raise HorizonExceeded("the counts do not release the car by T")
    return t
