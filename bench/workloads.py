"""Seeded scenario generators for the benchmark workloads.

Every generator returns `.scn` text, so the benchmark exercises the parser
on its own inputs.  Only the standard-library `random.Random` is used and
every number is written with a fixed number of decimals, so the text for a
given seed is byte-identical across Python and numpy versions.
"""

import random


def _f(x):
    return f"{x:.3f}"


def _profile(rng, lo, hi, T):
    """Piecewise-constant `time:value` inflow profile with three pieces."""
    times = [0.0] + sorted(round(rng.uniform(0.1, 0.9) * T, 1)
                           for _ in range(2))
    return ",".join(f"{t:.1f}:{_f(rng.uniform(lo, hi))}"
                    for t in dict.fromkeys(times))


class _Chain:
    """Main road from one source to one sink, grown gadget by gadget."""

    MAIN_LENGTH = 1.25

    def __init__(self, rng, T, demand):
        self.rng = rng
        self.nodes = [f"node src kind=source mu=0.25 "
                      f"inflow={_profile(rng, 0.75 * demand, demand, T)}"]
        self.edges = []
        self.densities = []
        self.buffers = []
        self.head = "src"
        self.count = 0
        self.T = T

    def _name(self, prefix):
        self.count += 1
        return f"{prefix}{self.count}"

    def _junction(self, nid, kind, mu, extra=""):
        """Bounded buffer with a processing rate drawn from the range `mu`."""
        rng = self.rng
        r_max = rng.uniform(0.25, 0.45)
        mu = rng.uniform(*mu)
        self.nodes.append(f"node {nid} kind={kind} r_max={_f(r_max)} "
                          f"mu={_f(mu)}{extra}")
        self.buffers.append(f"buffer {nid} {_f(rng.uniform(0.2, 0.6) * r_max)}")

    def _edge(self, src, dst, main=False):
        eid = f"e{len(self.edges) + 1}"
        self.edges.append((eid, src, dst, self.rng.uniform(0.5, 2.0), main))
        self.densities.append(f"density {eid} {_f(self.rng.uniform(0.1, 0.35))}")

    def _advance(self, nid):
        """Main-line edge from the current head into junction `nid`."""
        self._edge(self.head, nid, main=True)
        self.head = nid

    def pass_through(self):
        nid = self._name("p")
        self._junction(nid, "one_to_one", (0.20, 0.24))
        self._advance(nid)

    def diamond(self):
        """Split into a direct and a two-road branch that merge again."""
        rng = self.rng
        a, m, b = self._name("d"), self._name("m"), self._name("b")
        split = rng.uniform(0.3, 0.7)
        self._junction(a, "one_to_two", (0.22, 0.28),
                       f" alpha={_f(split)},{_f(1 - split)}")
        self._junction(m, "one_to_one", (0.20, 0.24))
        self._junction(b, "two_to_one", (0.28, 0.34),
                       " priority=demand_proportional")
        self._advance(a)
        self._edge(a, b, main=True)
        self._edge(a, m)
        self._edge(m, b)
        self.head = b

    def side_entry(self):
        """A second source merging into the main road, which has the fixed
        right of way."""
        rng = self.rng
        s, j = self._name("s"), self._name("j")
        c = rng.uniform(0.70, 0.80)
        self._junction(j, "two_to_one", (0.34, 0.42),
                       f" priority=fixed:{_f(c)},{_f(1 - c)}")
        self.nodes.append(f"node {s} kind=source mu=0.25 "
                          f"inflow={_profile(rng, 0.03, 0.08, self.T)}")
        self._advance(j)
        self._edge(s, j)

    def side_exit(self):
        """A dispersing junction whose first exit leaves to a sink."""
        rng = self.rng
        x, k = self._name("x"), self._name("k")
        share = rng.uniform(0.2, 0.3)
        self._junction(x, "one_to_two", (0.22, 0.28),
                       f" alpha={_f(share)},{_f(1 - share)}")
        self.nodes.append(f"node {k} kind=sink")
        self._advance(x)
        self._edge(x, k)

    def text(self, h):
        """The scenario, with lengths scaled so that the main line (direct
        diamond branches) and the other roads each average MAIN_LENGTH per
        road: the cost of a car query and the number of cells then hardly
        depend on the seed."""
        self.nodes.append("node out kind=sink")
        self._edge(self.head, "out", main=True)
        scale = {}
        for on_main in (True, False):
            lengths = [e[3] for e in self.edges if e[4] is on_main]
            if lengths:
                scale[on_main] = self.MAIN_LENGTH * len(lengths) / sum(lengths)
        edges = [f"edge {eid} from={src} to={dst} "
                 f"length={_f(length * scale[on_main])}"
                 for eid, src, dst, length, on_main in self.edges]
        lines = ["[network]", *self.nodes, *edges,
                 "[initial]", *self.densities, *self.buffers,
                 "[run]", f"T={self.T}", f"h={h}"]
        return "\n".join(lines) + "\n"


def gadget_chain(seed, gadgets, h, T, demand):
    """A seeded chain of split/merge diamonds, side entries with fixed
    priorities, side exits and pass-throughs between one source `src` and
    one sink `out`; the first road is `e1`."""
    rng = random.Random(seed)
    chain = _Chain(rng, T, demand)
    kinds = (chain.diamond, chain.side_entry, chain.side_exit,
             chain.pass_through)
    for i in range(gadgets):
        kinds[i % 4]()
    return chain.text(h)


def fine_roads(seed, length, h, T):
    """A few long roads on a fine grid with Riemann-type initial data.

    The feeder `f` splits at `a` into the long road `r1` and the long road
    `r2` to the pass-through `p`; `r1` and the short link `r2b` merge at
    `c`, and the long road `r3` leaves `c` for the sink.  One car starts
    near the end of `r2`, where the density is low, and is routed to `p`
    so it arrives within the short horizon.
    """
    rng = random.Random(seed)

    def riemann(left=(0.05, 0.9), right=(0.05, 0.9)):
        x = rng.uniform(0.2, 0.6) * length
        return (f"0.000:{_f(rng.uniform(*left))},"
                f"{_f(x)}:{_f(rng.uniform(*right))}")

    split = rng.uniform(0.35, 0.65)
    lines = [
        "[network]",
        f"node s kind=source mu=0.25 inflow={_profile(rng, 0.12, 0.22, T)}",
        f"node a kind=one_to_two r_max={_f(rng.uniform(0.2, 0.5))} mu=0.25 "
        f"alpha={_f(split)},{_f(1 - split)}",
        f"node p kind=one_to_one r_max={_f(rng.uniform(0.2, 0.5))} mu=0.25",
        f"node c kind=two_to_one r_max={_f(rng.uniform(0.2, 0.5))} "
        f"mu={_f(rng.uniform(0.15, 0.25))} priority=demand_proportional",
        "node k kind=sink",
        "edge f from=s to=a length=0.500",
        f"edge r1 from=a to=c length={_f(length)}",
        f"edge r2 from=a to=p length={_f(length)}",
        "edge r2b from=p to=c length=0.500",
        f"edge r3 from=c to=k length={_f(length)}",
        "[initial]",
        f"density f {_f(rng.uniform(0.05, 0.3))}",
        f"density r1 {riemann()}",
        f"density r2 {riemann(right=(0.05, 0.3))}",
        f"density r2b {_f(rng.uniform(0.05, 0.3))}",
        f"density r3 {riemann(left=(0.05, 0.3))}",
        "[run]",
        f"T={T}",
        f"h={h}",
        "[car]",
        "start_edge=r2",
        f"start_x={_f(length - 0.6)}",
        "start_time=0",
        "destination=p",
        f"tracker={rng.choice(['naive', 'complex'])}",
        "policy=fastest",
    ]
    return "\n".join(lines) + "\n"
