"""Walk a chirp flood through a six-node topology and watch the Q-tables.

Topology (two disjoint branches between D and A):

    D --- C --- B --- A
     \\              /
      F --- E ------

Node D originates chirps; every other node learns a reverse path toward D
and the per-hop discount shows up as Q ~ gamma0^hops.  With this
deterministic flood order A always hears the B-branch copy first and the
duplicate via E is discarded as stale; under the simulator's jittered
forwarding the arrival order varies, which is what keeps backup entries
alive.
"""

from parrot_net.kinematics import Vec3
from parrot_net.routing import Forward, RoutingParams, RoutingState

D, C, F, B, E, A = 0, 1, 2, 3, 4, 5
NAMES = {D: "D", C: "C", F: "F", B: "B", E: "E", A: "A"}
ADJACENCY = {
    D: (C, F),
    C: (D, B),
    F: (D, E),
    B: (C, A),
    E: (F, A),
    A: (B, E),
}

states = {}
for node in ADJACENCY:
    state = RoutingState(node, RoutingParams(), now=0.0, tau=2.5, r_tx=150.0)
    state.update_self(Vec3(0, 0, 0), Vec3(0, 0, 0))  # co-located, static
    states[node] = state

for round_index in range(30):
    now = 0.5 * (round_index + 1)
    for state in states.values():
        state.expire(now)
    chirp = states[D].make_chirp()
    queue = [(neighbor, chirp, D) for neighbor in ADJACENCY[D]]
    while queue:
        node, incoming, forwarder, = queue.pop(0)
        action = states[node].handle_chirp(incoming, forwarder, now)
        if isinstance(action, Forward):
            queue.extend(
                (nxt, action.chirp, node) for nxt in ADJACENCY[node] if nxt != forwarder
            )

print("Q(D, j) after 30 chirp rounds (gamma0 = 0.8):")
for node in (C, F, B, E, A):
    row = states[node].table.row(D)
    cells = ", ".join(f"via {NAMES[j]}: {q:.4f}" for j, q in sorted(row.items()))
    hop = states[node].select_next_hop(D)
    print(f"  {NAMES[node]}: {cells}  -> next hop {NAMES[hop]}")

print("\nper-hop discount: 0.8^1 = 0.8, 0.8^2 = 0.64, 0.8^3 = 0.512")
