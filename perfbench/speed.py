"""The speed probe: fixed work that times how fast the CPU runs for a process.

It counts the 240 Hamiltonian paths of the Petersen graph by bitmask
depth-first search, work shaped like the program's hot loop that shares no
code with it.  This module imports nothing, so a fresh interpreter can time
the probe before it imports the program without loading any module the
program needs.
"""

# Mean cost of one ``speed_probe`` call on the reference machine.
REF_PROBE_S = 0.9e-3


def _petersen() -> tuple[int, ...]:
    edges = [(i, (i + 1) % 5) for i in range(5)]  # outer cycle
    edges += [(i, i + 5) for i in range(5)]  # spokes
    edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]  # inner pentagram
    adj = [0] * 10
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


_PETERSEN = _petersen()


def speed_probe() -> int:
    full = (1 << 10) - 1
    found = 0

    def extend(u: int, visited: int) -> None:
        nonlocal found
        if visited == full:
            found += 1
            return
        rest = _PETERSEN[u] & ~visited
        while rest:
            low = rest & -rest
            rest ^= low
            extend(low.bit_length() - 1, visited | low)

    for start in range(10):
        extend(start, 1 << start)
    return found
