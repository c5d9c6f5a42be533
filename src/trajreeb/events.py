"""Detection of appear / disappear / connect / disconnect events.

Connect and disconnect are decided between index-aligned points only: at
global step k the pair (T, T') compares T.point_at(k) against T'.point_at(k).
A pair is emitted as Connect at the first common step where the points are
epsilon-connected and either no predecessor step exists or the predecessor
points were disconnected; Disconnect mirrors that on the way out.  Per pair,
connects and disconnects strictly alternate, starting with Connect.

One detector serves every epsilon and every input.  Each step's points are
bucketed into a uniform grid over coordinates relative to the step's
minimum, with a cell side of at least epsilon, so every epsilon-connected
pair lies in the same or a neighbouring cell (Bentley, Stanat and Williams,
IPL 1977) and only the 27-cell neighbourhood is tested.  Cells are numbered
x + nx*(y + ny*z), which orders them by (z, y, x), with nx and ny the sides
of the step's cell box and one empty cell past the largest index on each
axis.  Each point meets its own cell and the 13 neighbours numbered above
it; cells x - 1, x and x + 1 of a row have consecutive codes, so those
cells form 5 runs of codes, and the points of each run are found by binary
search in the sorted codes.  Memory stays linear in the points however
tiny epsilon is against the coordinates.  The side grows past epsilon when
the step's span would need more than 2**21 - 4 cells per axis, which costs
candidates, never pairs.  Candidates are decided by the squared-distance
predicate of :mod:`trajreeb.geometry`, evaluated in the same order, so
boundary decisions agree bit-for-bit with every other code path; only the
hits are mapped back from cell order.

Most steps do not need the grid.  The index-aligned points of a bundle move
almost rigidly from one step to the next, so the pairs the grid finds at
one step within a reach of 1.4 times epsilon serve the following steps as
a Verlet candidate list (Verlet, Phys. Rev. 159, 98, 1967).  While a
best-fit rotation and shift of that anchor step (Kabsch, Acta Cryst. A32,
922, 1976) puts every current point within 0.2 epsilon of where it is, a
pair off the list cannot be within epsilon, and the listed pairs' squared
distances decide the step, with the grid's arithmetic.  The grid rebuilds
the list when that test fails, when a trajectory appears, or when the
float margins of the argument cannot be shown; a trajectory that ends
leaves the list.

Detection runs over the steps once for any number of epsilons: each step's
pairs come from one list or grid at the largest epsilon, with their squared
distances, and each epsilon keeps those within its own radius.  The step
index holds the trajectories in id order, and pairs are coded by its rows,
so codes order as the id pairs do: a pair ended by a disappearance drops
out through a lookup of its members' last steps, and each step's connects
and disconnects are the codes that the current or the previous sorted code
array lacks, found by one binary search.  The schedule it returns keeps
those rows: its subjects are rows of the index's id column, which serves
as the schedule's id table, so detection gathers no id.  Ids, and
:class:`Event` objects, are made only where a caller looks at events.

Detection reads the points through the set's step index
(:class:`trajreeb.geometry._StepIndex`), which the set makes once and
shares with the replay.  Each step gathers its rows and transposes them once
into the (3, n) coordinates that the grid and the list read, widened to
float64 in the same copy when the array holds a Float32 file's points.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .geometry import Point3, Trajectory, TrajectorySet, _StepIndex, _check_epsilon, _in_id_range


class EventKind(enum.IntEnum):
    """Ordered as processed within a step: a trajectory must exist in the
    step graph before its edges change, and edges must be resolved before
    node removal."""

    APPEAR = 0
    CONNECT = 1
    DISCONNECT = 2
    DISAPPEAR = 3

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Event:
    kind: EventKind
    step: int
    subjects: tuple[int, ...]
    location: Point3

    def __post_init__(self):
        if self.kind in (EventKind.APPEAR, EventKind.DISAPPEAR):
            if len(self.subjects) != 1:
                raise ContractError(f"{self.kind} takes one subject")
        else:
            if len(self.subjects) != 2 or self.subjects[0] >= self.subjects[1]:
                raise ContractError(f"{self.kind} takes an ordered distinct pair")
        if not all(map(_in_id_range, self.subjects)):
            raise ContractError(f"{self.kind} subject ids must be non-negative and below 2**63 "
                                "(integers)")
        # a step has an id's range: an int64 step column, and no step below 0
        if not _in_id_range(self.step):
            raise ContractError(f"{self.kind} step must be non-negative and below 2**63 "
                                "(an integer)")

    @property
    def sort_key(self):
        return (self.step, int(self.kind), self.subjects)

    def to_dict(self) -> dict:
        return {
            "kind": str(self.kind),
            "step": self.step,
            "subjects": list(self.subjects),
            "location": [self.location.x, self.location.y, self.location.z],
        }


_KIND_NAMES = [str(kind) for kind in EventKind]
# events per chunk of JSON lines, about 64 KiB of text
_JSONL_BLOCK = 512


class EventSchedule:
    """Step-ordered event sequence; the input alphabet of the FSM.

    Stored as columns sorted by (step, kind, subjects): one sorted int64 id
    table ``_ids`` and, per event, its step (int64), its kind (int8) and
    its subjects ``a`` and ``b`` as int32 rows of that table, with
    ``b == a`` for appear and disappear.  Rows order as the ids do.  A
    schedule made by :func:`detect_all_events` takes its set's step index
    as its table, ids and rows alike, and derives each location from it,
    as row ``a``'s point at the event step.  A schedule built from events
    makes its table of the subjects it holds and keeps their locations as
    an (n, 3) float64 array.  Ids are gathered from the table only where
    events are shown: the :class:`Event` objects, built only when asked
    for, :meth:`to_jsonl` and comparison.
    """

    def __init__(self, events):
        evs = sorted(events, key=lambda e: e.sort_key)
        n = len(evs)
        a = np.fromiter((e.subjects[0] for e in evs), dtype=np.int64, count=n)
        b = np.fromiter((e.subjects[-1] for e in evs), dtype=np.int64, count=n)
        # the distinct subjects, sorted; np.unique would import numpy.ma
        ids = np.sort(np.concatenate((a, b)))
        self._ids = np.concatenate((ids[:1], ids[1:][ids[1:] != ids[:-1]]))
        self._step = np.fromiter((e.step for e in evs), dtype=np.int64, count=n)
        self._kind = np.fromiter((e.kind for e in evs), dtype=np.int8, count=n)
        self._a = self._ids.searchsorted(a).astype(np.int32)
        self._b = self._ids.searchsorted(b).astype(np.int32)
        self._locations = np.array([tuple(e.location) for e in evs],
                                   dtype=np.float64).reshape(n, 3)
        self._index = None

    @classmethod
    def _from_columns(cls, index: _StepIndex, step, kind, a, b) -> "EventSchedule":
        """A detected schedule, whose subjects are rows of the step index."""
        out = cls.__new__(cls)
        out._ids, out._step, out._kind, out._a, out._b = index.ids, step, kind, a, b
        out._locations, out._index = None, index
        return out

    def _columns(self, lo: int, hi: int):
        """Step, kind, the subjects' ids a and b (equal for appear and
        disappear) and the (n, 3) locations of events lo..hi-1, a detected
        schedule's locations by one gather over the step index."""
        step, kind, a, b = (c[lo:hi] for c in (self._step, self._kind, self._a, self._b))
        if self._locations is None:
            locations = self._index.rows_at(a, step)
        else:
            locations = self._locations[lo:hi]
        return step, kind, self._ids[a], self._ids[b], locations

    def _slice(self, lo: int, hi: int):
        """Events lo..hi-1, built on the fly."""
        *cols, locations = (c.tolist() for c in self._columns(lo, hi))
        for k, kind, a, b, loc in zip(*cols, locations):
            yield Event(EventKind(kind), k, (a,) if a == b else (a, b), Point3._make(loc))

    def _runs(self):
        """(step, kind, lo, hi) of each run lo..hi-1 of events of one kind
        at one step, in schedule order."""
        cuts = np.flatnonzero(np.diff(self._step * 4 + self._kind)) + 1
        bounds = [0, *cuts.tolist(), len(self)] if len(self) else []
        step, kind = self._step.tolist(), self._kind.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield step[lo], kind[lo], lo, hi

    def __len__(self) -> int:
        return self._step.shape[0]

    def __iter__(self):
        return self._slice(0, len(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventSchedule) or len(self) != len(other):
            return False
        mine, theirs = self._columns(0, len(self)), other._columns(0, len(other))
        return all(map(np.array_equal, mine, theirs))

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self)

    @property
    def steps(self) -> list[int]:
        return np.unique(self._step).tolist()

    def at_step(self, k: int) -> list[Event]:
        lo, hi = np.searchsorted(self._step, (k, k + 1)).tolist()
        return list(self._slice(lo, hi))

    def to_jsonl(self) -> str:
        """One JSON object per event and line, as ``json.dumps(e.to_dict())``
        writes it; no line at all for an empty schedule."""
        return "".join(self._jsonl_chunks())

    def _jsonl_chunks(self):
        """The JSON lines of blocks of events, formatted from the columns:
        each float as str writes it, which for a finite float is the repr
        json.dumps writes, and each id and step as its int."""
        for lo in range(0, len(self), _JSONL_BLOCK):
            step, kind, a, b, locations = self._columns(lo, lo + _JSONL_BLOCK)
            if np.isfinite(locations).all():
                locations = locations.tolist()
            else:  # a stored location may be nan or inf: NaN and Infinity in JSON
                locations = [list(map(json.dumps, p)) for p in locations.tolist()]
            subjects = [i if i == j else f"{i}, {j}" for i, j in zip(a.tolist(), b.tolist())]
            yield "".join([
                f'{{"kind": "{_KIND_NAMES[kind]}", "step": {k}, "subjects": [{ab}], '
                f'"location": [{x}, {y}, {z}]}}\n'
                for k, kind, ab, (x, y, z) in zip(step.tolist(), kind.tolist(), subjects,
                                                   locations)])

    def validate(self) -> None:
        """Check the alternation invariant: per pair, Connect and Disconnect
        strictly alternate, starting with Connect."""
        state: dict[tuple[int, int], EventKind] = {}
        for e in self:
            if e.kind is EventKind.CONNECT:
                if state.get(e.subjects) is EventKind.CONNECT:
                    raise ContractError(f"double connect for pair {e.subjects}")
                state[e.subjects] = EventKind.CONNECT
            elif e.kind is EventKind.DISCONNECT:
                if state.get(e.subjects) is not EventKind.CONNECT:
                    raise ContractError(f"disconnect before connect for {e.subjects}")
                state[e.subjects] = EventKind.DISCONNECT


def pairwise_events(t1: Trajectory, t2: Trajectory, epsilon: float) -> list[Event]:
    """Connect/disconnect events for one pair over their common step range."""
    _check_epsilon(epsilon)
    if t1.id == t2.id:
        raise ContractError("pairwise_events needs two distinct trajectories")
    schedule = _detect(TrajectorySet((t1, t2)), [epsilon])[0]
    return [e for e in schedule if e.kind in (EventKind.CONNECT, EventKind.DISCONNECT)]


# ---------------------------------------------------------------------------
# Whole-set detection

# A step's cells are numbered x + nx*(y + ny*z), with nx and ny two more
# than the largest index on their axis.  Cells x - 1, x and x + 1 of a row
# then have consecutive codes, and a step to x - 1 or y - 1 from index 0
# lands on index nx - 1 or ny - 1 of the axis, which stays empty.  Capping
# the cell index at 2**21 - 5 per axis keeps every code and shifted code
# below 2**63.
_CELLS_PER_AXIS = (1 << 21) - 4
# (dy, dz) of the point's own row of cells, first, then of the 4 neighbouring
# rows whose codes are larger
_FORWARD_ROWS = np.array([(0, 0), (1, 0), (-1, 1), (0, 1), (1, 1)])


def _hits(xyz: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (ii, jj) of the epsilon-connected points among the
    columns of one step's (3, n) coordinates, and their squared distances.

    Candidates share or neighbour a grid cell: each point meets the rest of
    its own cell and the cell after it, and the cells x - 1 to x + 1 of the
    4 neighbouring rows whose codes x + nx*(y + ny*z) are larger.  Each of
    those 5 runs of cells is a window [lo, hi) of cell-sorted positions,
    found by binary search in the sorted codes.
    """
    n = xyz.shape[1]
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    with np.errstate(over="ignore"):  # an overflow is the inf rejected below
        rel = xyz - np.array([c.min() for c in xyz])[:, None]
    span = float(rel.max())
    if not np.isfinite(span):
        raise ValueError("coordinates at one step span more than the float64 range")
    # the hair over 1 absorbs the rounding of rel and of the division, so
    # points within epsilon still land at most one cell apart
    side = max(epsilon, span / _CELLS_PER_AXIS) * (1 + 2**-20)
    cells = (rel / side).astype(np.int64)
    # per row: a reduction along axis 1 is several times slower
    nx, ny = (int(c.max()) + 2 for c in cells[:2])
    code = cells[0] + nx * (cells[1] + ny * cells[2])
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    shift = _FORWARD_ROWS @ np.array([nx, nx * ny])
    lo = np.searchsorted(sorted_code, sorted_code + (shift - 1)[:, None], side="left")
    hi = np.searchsorted(sorted_code, sorted_code + (shift + 1)[:, None], side="right")
    # row 0 starts each point's window just past it
    lo[0] = np.arange(1, n + 1)
    hi -= lo
    cnt = hi.ravel()
    window = np.flatnonzero(cnt)
    cnt, lo = cnt[window], lo.ravel()[window]
    del hi
    pi = np.repeat(window % n, cnt)
    pj = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(pi.shape[0])
    del window, cnt, lo
    d2 = _squared_distances(xyz.take(order, axis=1), pi, pj)
    hit = np.flatnonzero(d2 <= epsilon * epsilon)
    return order[pi[hit]], order[pj[hit]], d2[hit]


def _squared_distances(xyz: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared distances between columns i and j of a (3, n) array, as
    (dx*dx + dy*dy) + dz*dz in geometry.squared_distance's order; (-x)**2 ==
    x**2 exactly, so d2 does not depend on which end comes first."""
    x, y, z = xyz
    d2 = x[i]
    d2 -= x[j]
    d2 *= d2
    for w in (y, z):
        d = w[i]
        d -= w[j]
        d *= d
        d2 += d
    return d2


def _pack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Codes of unordered key pairs: the smaller key above bit 31."""
    return (np.minimum(a, b) << 31) + np.maximum(a, b)


_LOW31 = (1 << 31) - 1


def _diff(prev: np.ndarray, cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the elements of cur that prev lacks, those of prev that cur lacks),
    of two sorted arrays of distinct elements, by one binary search."""
    if cur.shape[0] == 0:
        return cur, prev
    at = np.searchsorted(cur, prev)
    found = cur.take(at, mode="clip") == prev
    kept = np.zeros(cur.shape[0], dtype=bool)
    kept[at[found]] = True
    return cur[~kept], prev[~found]


# A Verlet candidate list (Verlet, Phys. Rev. 159, 98, 1967) serves the steps
# after a grid step.  The grid finds the pairs within reach = (eps + 2*delta)
# * (1 + _HAIR) of each other at the anchor step k0, for the largest eps and
# delta = _DRIFT * eps.  A later step fits a rigid motion to the anchor
# points (Kabsch, Acta Cryst. A32, 922, 1976) and uses the list while every
# point lies within delta of where the motion puts it.  A pair left out had
# d(k0) > reach, and an orthogonal R keeps d(k0) through the motion, so its
# points, each within delta of their images, stay more than eps apart.
# Every pair on the list gets the d2 the grid would give it, so ties at eps
# fall exactly as on a grid step.
#
# Float margins, with u = 2**-53, M0 and Mk the largest centred coordinate
# at k0 and at k, L = eps + 2*delta and h = _HAIR:
# - the list left the pair out on a computed d2, so d(k0) > reach (1 - 4u);
# - centring rounds each coordinate by at most u of itself: the anchor
#   differences and the current ones are off by at most 4u M0 and 4u Mk;
# - the computed residuals are within 30u (M0 + Mk) of the true ones;
# - R's singular values are at least 1 - eta, eta = 3 (max |R^T R - I| + 4u).
# Then d(k) > (1 - eta) reach (1 - 4u) - 2 delta - 64u (M0 + Mk) - 8u delta,
# which exceeds eps (1 + 4u), and so rejects the pair at every eps of the
# pass, when 64u (M0 + Mk) <= L h / 4 and 2 eta <= h / 4.  A step that cannot
# show both, as when eps is tiny against the coordinates, goes to the grid.
_DRIFT = 0.2
_HAIR = 2.0**-20
_ROUNDING = 2.0**-53
# scaled Newton settles in ~5 steps from any full-rank start
_ROTATION_STEPS = 20


class _CandidateList:
    """The pairs of one anchor step's active points within reach of each
    other, as sorted codes of their step-index rows and the positions of
    their points among the list's rows, plus the anchor points centred on
    their mean."""

    def __init__(self, rows: np.ndarray, xyz: np.ndarray,
                 code: np.ndarray, ii: np.ndarray, jj: np.ndarray):
        self.rows, self.code, self.ii, self.jj = rows, code, ii, jj
        self.anchor, self.magnitude = _centred(xyz)

    @classmethod
    def grid(cls, index: _StepIndex, k: int, reach: float):
        """The list of step k, found by the grid, and its squared distances."""
        rows, xyz = index.active(k)
        ii, jj, d2 = _hits(xyz, reach)
        code = _pack(rows[ii], rows[jj])
        order = np.argsort(code)
        listed = cls(rows, xyz, code[order], ii[order], jj[order])
        return listed, d2[order]

    def prune(self, keep: np.ndarray) -> None:
        """Drop the rows where `keep` is false and every pair they are in."""
        at = np.cumsum(keep) - 1
        both = keep[self.ii] & keep[self.jj]
        self.code, self.ii, self.jj = self.code[both], at[self.ii[both]], at[self.jj[both]]
        self.rows, self.anchor = self.rows[keep], self.anchor[:, keep]

    def distances(self, index: _StepIndex, k: int, delta: float, slack: float):
        """Squared distances of the listed pairs at step k, or None when the
        points have drifted past delta from a rigid motion of the anchor or
        the float margins above cannot be shown."""
        xyz = index.at(self.rows, k)
        if xyz.shape[1] > 1 and not self._rigid(xyz, delta, slack):
            return None
        return _squared_distances(xyz, self.ii, self.jj)

    def _rigid(self, xyz: np.ndarray, delta: float, slack: float) -> bool:
        b, magnitude = _centred(xyz)
        # M0 + Mk of the comment above; the test also fails when not finite
        if not 64 * _ROUNDING * (self.magnitude + magnitude) <= slack:
            return False
        a = self.anchor
        # ufunc sums, not BLAS or LAPACK: the first call into either maps a
        # megabyte or more of library pages, which peak RSS then keeps
        r = _rotation((b[:, None] * a).sum(axis=2).ravel().tolist())
        if r is None:
            return False
        # eta of the comment above, from the column products of R
        cols = r[0::3], r[1::3], r[2::3]
        defect = max(abs(sum(p * q for p, q in zip(cols[i], cols[j])) - (i == j))
                     for i in range(3) for j in range(i, 3))
        if not 6 * (defect + 4 * _ROUNDING) <= _HAIR / 4:
            return False
        r = np.array(r).reshape(3, 3)
        # the anchor's own mean moves off 0 once rows are pruned
        shift = (r * (a.sum(axis=1) / a.shape[1])).sum(axis=1)
        e = b - (r[:, :, None] * a).sum(axis=1) + shift[:, None]
        return float((e * e).sum(axis=0).max()) <= delta * delta


def _rotation(m: list[float]) -> tuple[float, ...] | None:
    """The orthogonal polar factor of a 3x3 matrix given row-major, by
    scaled Newton iteration (Higham, SIAM J. Sci. Stat. Comput. 7, 1986), or
    None if it does not settle.

    For m = sum of b_i a_i^T over centred point sets, that factor is the R
    that maps the a_i closest onto the b_i (Kabsch).  m is first scaled to
    unit norm and its cofactor matrix added: that keeps the singular vectors,
    makes a rank-2 m (points in a plane, as a bundle's cross-section) full
    rank, and turns a small negative third singular value positive, so the
    factor is Kabsch's proper rotation in both cases.
    """
    norm = math.sqrt(sum(v * v for v in m))
    if not 0 < norm < math.inf:
        return None
    a, b, c, d, e, f, g, h, i = (v / norm for v in m)
    a, b, c, d, e, f, g, h, i = (a + e * i - f * h, b + f * g - d * i, c + d * h - e * g,
                                 d + c * h - b * i, e + a * i - c * g, f + b * g - a * h,
                                 g + b * f - c * e, h + c * d - a * f, i + a * e - b * d)
    for _ in range(_ROTATION_STEPS):
        # X <- (z X + X^-T / z) / 2, X^-T = cofactor(X) / det X, z = |det X|^(-1/3)
        ca, cb, cc = e * i - f * h, f * g - d * i, d * h - e * g
        det = a * ca + b * cb + c * cc
        if not det:
            return None
        z = abs(det) ** (-1 / 3)
        w = 0.5 / (z * det)
        z *= 0.5
        x = (z * a + w * ca, z * b + w * cb, z * c + w * cc,
             z * d + w * (c * h - b * i), z * e + w * (a * i - c * g), z * f + w * (b * g - a * h),
             z * g + w * (b * f - c * e), z * h + w * (c * d - a * f), z * i + w * (a * e - b * d))
        step = max(abs(p - q) for p, q in zip(x, (a, b, c, d, e, f, g, h, i)))
        a, b, c, d, e, f, g, h, i = x
        if step <= 1e-9:  # quadratic convergence: the next step would be ~1e-18
            return x
    return None


def _centred(xyz: np.ndarray) -> tuple[np.ndarray, float]:
    """A (3, n) array less its mean, and its largest absolute entry."""
    if xyz.shape[1] == 0:
        return xyz, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf fails the margin test
        c = xyz - (xyz.sum(axis=1) / xyz.shape[1])[:, None]
        return c, float(np.abs(c).max())


def _detect(s: TrajectorySet, epsilons: list[float]) -> list[EventSchedule]:
    """One event schedule per epsilon of an increasing list, from one pass
    over the steps.

    Each step's pairs are found once, with their squared distances, from
    the candidate list of the largest epsilon, which the grid rebuilds when
    the list cannot serve the step; every epsilon keeps the pairs within its
    own radius and diffs them against its previous step.  The list holds
    every pair of a smaller epsilon, and thresholding the same d2 decides
    ties exactly as a separate pass would.  Pairs are coded by the step
    index's rows, which are in id order, and each schedule keeps those
    rows as its subjects.
    """
    for e in epsilons:
        _check_epsilon(e)
    index = s._index
    n = len(s)

    kmin, kmax = s.step_range
    squares = [e * e for e in epsilons]
    delta = _DRIFT * epsilons[-1]
    reach = (epsilons[-1] + 2 * delta) * (1 + _HAIR)
    slack = (epsilons[-1] + 2 * delta) * _HAIR / 4
    # trajectories appearing at step k, and ending at step k - 1
    appear = np.bincount(index.start - kmin, minlength=kmax - kmin + 1)
    ended = np.bincount(index.end + 1 - kmin, minlength=kmax - kmin + 2)
    prev = [np.empty(0, dtype=np.int64) for _ in epsilons]
    # per epsilon: connect and disconnect codes of every step, in step order
    parts: list[list[np.ndarray]] = [[] for _ in epsilons]
    listed = None
    for k in range(kmin, kmax + 1):
        d2 = None
        if listed is not None and not appear[k - kmin]:
            if ended[k - kmin]:
                listed.prune(index.end[listed.rows] >= k)
            d2 = listed.distances(index, k, delta, slack)
        if d2 is None:
            listed, d2 = _CandidateList.grid(index, k, reach)
        curs = [listed.code[d2 <= sq] for sq in squares]
        # held into the next step's grid, it fragments the heap and raises
        # peak RSS (by ~0.8 MB over a 1500 x 600 ragged build)
        del d2
        for j, cur in enumerate(curs):
            new, gone = _diff(prev[j], cur)
            # a pair whose member ended at k - 1 ends without a Disconnect at k
            gone = gone[np.minimum(index.end[gone >> 31], index.end[gone & _LOW31]) >= k]
            parts[j] += (new, gone)
            prev[j] = cur

    # appear and disappear of every trajectory, by row; a stable sort by
    # (step, kind) then yields the (step, kind, subjects) order, because
    # pair codes come in step order and sorted within each step
    life_step = np.concatenate([index.start, index.end])
    life_kind = np.repeat(np.int8([EventKind.APPEAR, EventKind.DISAPPEAR]), n)
    life_a = np.tile(np.arange(n, dtype=np.int32), 2)
    pair_kind = np.tile(np.int8([EventKind.CONNECT, EventKind.DISCONNECT]), kmax - kmin + 1)
    pair_step = np.repeat(np.arange(kmin, kmax + 1), 2)
    out = []
    for chunks in parts:
        sizes = [c.shape[0] for c in chunks]
        code = np.concatenate(chunks)
        step = np.concatenate([life_step, np.repeat(pair_step, sizes)])
        kind = np.concatenate([life_kind, np.repeat(pair_kind, sizes)])
        order = np.argsort(step * 4 + kind, kind="stable")
        a = np.concatenate([life_a, code >> 31], dtype=np.int32)[order]
        b = np.concatenate([life_a, code & _LOW31], dtype=np.int32)[order]
        out.append(EventSchedule._from_columns(index, step[order], kind[order], a, b))
    return out


def detect_all_events(s: TrajectorySet, epsilon: float) -> EventSchedule:
    """Full event schedule for a trajectory set at one epsilon.

    One Appear and one Disappear per trajectory plus the union of pairwise
    connect/disconnect events, deterministically ordered.
    """
    return _detect(s, [epsilon])[0]
