"""pprof-style profiles aggregated from the trace stream.

Three profiles mirror the ones Go developers reach for when debugging the
paper's bug classes:

* **goroutine profile** — final state × creation-site snapshot: the view
  ``pprof/goroutine`` gives, and the one that names a leak's origin.
* **block profile** — time parked per (primitive, call-site): where the
  program waited, measured in *scheduler steps* (the simulator's unit of
  progress) and virtual seconds.  Spans still open when the run ends are
  flagged ``still_blocked`` — those rows are the leaking call-sites.
* **mutex profile** — contended Mutex/RWMutex acquisitions per (lock,
  call-site), the ``pprof/mutex`` analogue.

Weights use scheduler steps as the primary unit because the virtual clock
only advances when timers fire: a heavily contended lock can burn thousands
of steps at virtual time zero.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Aggregation key: a small tuple of labels, e.g. ("chan.send", "file.py:12").
Key = Tuple[str, ...]


class ProfileEntry:
    """One aggregated row of a profile."""

    __slots__ = ("key", "count", "steps", "seconds", "still_blocked")

    def __init__(self, key: Key):
        self.key = key
        self.count = 0
        self.steps = 0
        self.seconds = 0.0
        self.still_blocked = 0

    def add(self, steps: int = 0, seconds: float = 0.0,
            still_blocked: int = 0) -> None:
        """Count one sample of this row's weight."""
        self.count += 1
        self.steps += steps
        self.seconds += seconds
        self.still_blocked += still_blocked

    def to_dict(self) -> dict:
        return {"key": list(self.key), "count": self.count,
                "steps": self.steps, "seconds": self.seconds,
                "still_blocked": self.still_blocked}


class Profile:
    """An aggregated multiset of keyed samples with top-N rendering."""

    def __init__(self, name: str, columns: Tuple[str, ...]):
        self.name = name
        #: Labels for the key components, e.g. ("primitive", "site").
        self.columns = columns
        self.entries: Dict[Key, ProfileEntry] = {}

    def entry(self, key: Key) -> ProfileEntry:
        """The row for ``key``, created empty on first use."""
        entry = self.entries.get(key)
        if entry is None:
            entry = ProfileEntry(key)
            self.entries[key] = entry
        return entry

    def add(self, key: Key, count: int = 1, steps: int = 0,
            seconds: float = 0.0, still_blocked: int = 0) -> ProfileEntry:
        entry = self.entry(key)
        entry.count += count
        entry.steps += steps
        entry.seconds += seconds
        entry.still_blocked += still_blocked
        return entry

    # ------------------------------------------------------------------

    def top(self, n: Optional[int] = None) -> List[ProfileEntry]:
        """Entries by weight: steps, then count, then key (deterministic)."""
        ranked = sorted(self.entries.values(),
                        key=lambda e: (-e.steps, -e.count, e.key))
        return ranked if n is None else ranked[:n]

    @property
    def total_steps(self) -> int:
        return sum(e.steps for e in self.entries.values())

    def render(self, n: int = 10) -> str:
        """An aligned ``pprof -top``-style table."""
        total = self.total_steps or 1
        header = f"{self.name} profile — top {min(n, len(self.entries))} of " \
                 f"{len(self.entries)} (weight = scheduler steps waiting)"
        lines = [header]
        lines.append(f"{'steps':>8} {'share':>6} {'count':>6} {'secs':>8}  "
                     + " / ".join(self.columns))
        for entry in self.top(n):
            label = " / ".join(entry.key)
            if entry.still_blocked:
                label += f"  [STILL BLOCKED x{entry.still_blocked}]"
            lines.append(f"{entry.steps:>8} {entry.steps / total:>6.1%} "
                         f"{entry.count:>6} {entry.seconds:>8g}  {label}")
        if not self.entries:
            lines.append("   (no samples)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"name": self.name, "columns": list(self.columns),
                "entries": [e.to_dict() for e in self.top(None)]}


class GoroutineProfile:
    """Final goroutine states grouped Go-``pprof/goroutine``-style."""

    def __init__(self) -> None:
        #: (state, name, creation_site) -> gids
        self.groups: Dict[Tuple[str, str, str], List[int]] = {}

    def add(self, gid: int, state: str, name: str, site: str) -> None:
        self.groups.setdefault((state, name, site), []).append(gid)

    def total(self) -> int:
        return sum(len(gids) for gids in self.groups.values())

    def _ranked(self) -> List[Tuple[Tuple[str, str, str], List[int]]]:
        # Blocked groups first (they are the story), then by size.
        def rank(item):
            (state, name, site), gids = item
            blocked = 0 if state.startswith("blocked") else 1
            return (blocked, -len(gids), state, name, site)
        return sorted(self.groups.items(), key=rank)

    def render(self) -> str:
        lines = [f"goroutine profile — {self.total()} goroutines "
                 f"in {len(self.groups)} groups"]
        for (state, name, site), gids in self._ranked():
            ids = ",".join(f"g{gid}" for gid in sorted(gids)[:6])
            if len(gids) > 6:
                ids += ",…"
            lines.append(f"{len(gids):>4} × [{state}] {name} "
                         f"created at {site}  ({ids})")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"total": self.total(),
                "groups": [{"state": state, "name": name, "site": site,
                            "count": len(gids), "gids": sorted(gids)}
                           for (state, name, site), gids in self._ranked()]}


# ----------------------------------------------------------------------
# Text flamegraph
# ----------------------------------------------------------------------


class _FlameNode:
    __slots__ = ("label", "weight", "children")

    def __init__(self, label: str):
        self.label = label
        self.weight = 0
        self.children: Dict[str, "_FlameNode"] = {}

    def child(self, label: str) -> "_FlameNode":
        node = self.children.get(label)
        if node is None:
            node = _FlameNode(label)
            self.children[label] = node
        return node


def flamegraph(stacks: Iterable[Tuple[Tuple[str, ...], int]],
               width: int = 40,
               title: str = "flamegraph (weight = scheduler steps blocked)"
               ) -> str:
    """Render root-first stacks into an indented text flamegraph.

    ``stacks`` yields ``(frames, weight)`` pairs with the outermost frame
    first.  Sibling order is weight-descending then label, so the render
    is deterministic for a deterministic trace.
    """
    root = _FlameNode("root")
    for frames, weight in stacks:
        root.weight += weight
        node = root
        for frame in frames:
            node = node.child(frame)
            node.weight += weight

    total = root.weight or 1
    lines = [title, f"total weight: {root.weight}"]

    def visit(node: _FlameNode, depth: int) -> None:
        ordered = sorted(node.children.values(),
                         key=lambda child: (-child.weight, child.label))
        for child in ordered:
            bar = "#" * max(1, round(width * child.weight / total))
            lines.append(f"{'  ' * depth}{child.label:<48} "
                         f"{child.weight:>8} {child.weight / total:>6.1%} |{bar}")
            visit(child, depth + 1)

    visit(root, 0)
    if not root.children:
        lines.append("  (no blocked stacks recorded)")
    return "\n".join(lines)
