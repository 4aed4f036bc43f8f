"""Scenario files: one JSON document describing a complete problem instance.

A scenario bundles the state labels, horizon, target behavior, contributor
kernels, and one or more named reward profiles. The on-disk layout is
documented in ``docs/scenario.schema.json``; the essentials:

* ``"scenario_version": 1`` is mandatory;
* kernels are ``[k][from][to]`` row-major, and a single ``[from][to]`` matrix
  is time-homogeneous shorthand for the same kernel at every step;
* floats are written with shortest round-trip precision, so save followed by
  load reproduces every value exactly.

`generate_random_scenario` draws reproducible instances from a Philox4x64
counter-based generator; the draw order is part of the determinism contract.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import mmap
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .errors import ValidationError
from .model import (
    Behavior,
    ContributorSet,
    RewardSchedule,
    StatePMF,
    StateSpace,
    _as_probabilities,
    _check_compatible,
    _FrozenValue,
)

SCENARIO_VERSION = 1

_TOP_LEVEL_KEYS = {
    "scenario_version",
    "name",
    "states",
    "horizon",
    "target",
    "contributors",
    "rewards",
    "metadata",
}


@dataclass(frozen=True, eq=False)
class Scenario(_FrozenValue):
    """A named problem instance: target, contributors, and reward profiles."""

    name: str
    space: StateSpace
    target: Behavior
    contributors: ContributorSet
    rewards: dict[str, RewardSchedule]
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.target.space != self.space:
            raise ValueError("target state space does not match scenario states")
        if not self.rewards:
            raise ValueError("scenario must define at least one reward profile")
        profiles = {f"reward profile {name!r}": schedule for name, schedule in self.rewards.items()}
        _check_compatible(self.target, contributors=self.contributors, **profiles)

    @property
    def horizon(self) -> int:
        return self.target.horizon

    def reward_profile(self, name: str | None = None) -> RewardSchedule:
        """Profile by name, or the sole profile when the scenario has only one."""
        if name is None and len(self.rewards) == 1:
            return next(iter(self.rewards.values()))
        if name in self.rewards:
            return self.rewards[name]
        known = ", ".join(sorted(self.rewards))
        if name is None:
            raise ValueError(f"scenario has several reward profiles, name one of: {known}")
        raise ValueError(f"unknown reward profile {name!r}, scenario has: {known}")


def demo_scenario_path() -> Path:
    """Location of the bundled six-node road-network demonstration scenario."""
    return Path(__file__).parent / "data" / "demo_scenario.json"


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_scenario(path: str | Path, mode: str = "strict") -> Scenario:
    """Parse and validate a scenario file.

    Args:
        path: JSON file to read.
        mode: row tolerance mode, "strict" (default) or "renormalize".

    Raises:
        ValidationError: on unreadable files, malformed JSON (reported with
            line and column), or any schema or probability violation
            (reported with kernel row coordinates).
    """
    path = Path(path)
    return scenario_from_dict(_read_json(path, "scenario"), mode=mode, source=str(path))


def _read_json(path: Path, kind: str) -> Any:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def scenario_from_dict(
    doc: Any, mode: str = "strict", source: str = "scenario"
) -> Scenario:
    """Build a Scenario from an already-parsed JSON document."""

    def fail(message: str) -> ValidationError:
        return ValidationError(f"{source}: {message}")

    if not isinstance(doc, dict):
        raise fail("top level must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise fail(f"unknown top-level keys: {sorted(unknown)}")
    version = doc.get("scenario_version")
    if version != SCENARIO_VERSION:
        raise fail(
            f"scenario_version must be {SCENARIO_VERSION}, got {version!r}"
        )
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise fail("name must be a non-empty string")

    space = _parse_states(doc.get("states"), fail)

    horizon = doc.get("horizon")
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise fail("horizon must be an integer >= 1")

    # the profiles spell out every step, so checking them first bounds the horizon by
    # the file's size before a shorthand kernel is repeated or a pool is allocated
    rewards_node = doc.get("rewards")
    if not isinstance(rewards_node, dict) or not rewards_node:
        raise fail("rewards must be an object with at least one named profile")
    rewards: dict[str, RewardSchedule] = {}
    for profile, values in rewards_node.items():
        if not profile:
            raise fail("reward profile names must be non-empty")
        arr = _numeric_array(values, f"reward profile {profile!r}", fail)
        if arr.ndim != 2 or arr.shape != (horizon, space.size):
            raise fail(
                f"reward profile {profile!r} must be a {horizon}x{space.size} array, "
                f"got shape {arr.shape}"
            )
        try:
            rewards[profile] = RewardSchedule(space, arr)
        except ValueError as exc:
            raise fail(f"reward profile {profile!r}: {exc}") from None

    target_node = doc.get("target")
    if not isinstance(target_node, dict) or set(target_node) != {"initial", "kernels"}:
        raise fail("target must be an object with keys 'initial' and 'kernels'")
    target = _parse_behavior(target_node, space, horizon, mode, "target", fail)

    contributors_node = doc.get("contributors")
    if not isinstance(contributors_node, list) or not contributors_node:
        raise fail("contributors must be a non-empty list")
    ids: list[str] = []
    pool = _mapped_empty((len(contributors_node), horizon, space.size, space.size))
    for pos, entry in enumerate(contributors_node):
        if not isinstance(entry, dict) or set(entry) != {"id", "kernels"}:
            raise fail(
                f"contributor #{pos + 1} must be an object with keys 'id' and 'kernels'"
            )
        cid = entry["id"]
        if not isinstance(cid, str) or not cid:
            raise fail(f"contributor #{pos + 1}: id must be a non-empty string")
        ids.append(cid)
        pool[pos] = _parse_kernels(
            entry["kernels"], space, horizon, mode, f"contributor {cid!r}", fail
        )
    try:
        contributors = ContributorSet._of(space, pool, tuple(ids))
    except ValueError as exc:
        raise fail(str(exc)) from None

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise fail("metadata must be an object")

    return Scenario(name, space, target, contributors, rewards, metadata)


def _mapped_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array for a pool, in a private anonymous memory map of its own.

    Freed, it goes straight back to the OS. A freed pool-sized ``malloc`` block
    would raise glibc's mmap threshold and keep the next dropped pool resident.
    """
    private = mmap.mmap(-1, 8 * int(np.prod(shape)), access=mmap.ACCESS_COPY)
    return np.frombuffer(private, dtype=float).reshape(shape)


def _parse_states(node: Any, fail) -> StateSpace:
    if not isinstance(node, list) or not node:
        raise fail("states must be a non-empty list of labels")
    for lab in node:
        if not isinstance(lab, (int, str)) or isinstance(lab, bool):
            raise fail(f"state label {lab!r} must be an integer or a string")
    try:
        return StateSpace(tuple(node))
    except ValueError as exc:
        raise fail(str(exc)) from None


def _numeric_array(node: Any, what: str, fail) -> np.ndarray:
    """A new C-ordered float array of ``node``; a caller's array is copied, never kept."""
    try:
        return np.array(node, dtype=float, order="C")
    except (ValueError, TypeError):
        raise fail(f"{what} must be a numeric array") from None


def _parse_behavior(
    node: dict, space: StateSpace, horizon: int | None, mode: str, owner: str, fail
) -> Behavior:
    """The behavior of an ``{initial, kernels}`` node: a scenario's target or a policy file."""
    try:
        initial = StatePMF(space, np.asarray(node["initial"], dtype=float), mode)
    except (ValueError, TypeError) as exc:
        raise fail(f"{owner} initial pmf: {exc}") from None
    return Behavior._of(initial, _parse_kernels(node["kernels"], space, horizon, mode, owner, fail))


def _parse_kernels(
    node: Any, space: StateSpace, horizon: int | None, mode: str, owner: str, fail
) -> np.ndarray:
    """One validated (N, d, d) kernel stack; the shorthand matrix is validated once."""
    arr = _numeric_array(node, f"{owner} kernels", fail)
    if horizon is None:  # policy files: a [k] axis is required and sets the horizon
        if arr.ndim != 3:
            raise fail(f"{owner} kernels must be a [k][from][to] array")
        horizon = arr.shape[0]
    if arr.ndim not in (2, 3):
        raise fail(
            f"{owner} kernels must be a [from][to] matrix or a [k][from][to] array"
        )
    if arr.ndim == 3 and arr.shape[0] != horizon:
        raise fail(
            f"{owner} kernels: expected {horizon} matrices, got {arr.shape[0]}"
        )
    d = space.size
    if arr.shape[-2:] != (d, d):
        raise fail(f"{owner} kernel at k=1: kernel must be {d}x{d}, got shape {arr.shape[-2:]}")

    def row_name(index: int) -> str:
        k, x = divmod(index, d)
        return f"{owner} kernel at k={k + 1}: row for state {space.label(x)!r}: "

    try:
        arr = _as_probabilities(arr, mode, "kernel row", row_name)
    except ValueError as exc:
        raise fail(str(exc)) from None
    if arr.ndim == 2:  # time-homogeneous shorthand: one matrix replicated across the horizon
        arr = np.repeat(arr[np.newaxis], horizon, axis=0)
    return arr


# ---------------------------------------------------------------------------
# saving
# ---------------------------------------------------------------------------


def _atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to a temporary sibling, then rename it over ``path``.

    The rename is atomic, so ``path`` holds either its old bytes or all of
    the new ones, never a partial write. Each call makes a sibling of its own,
    so concurrent writers to one path never rename each other's files into
    place. A failure removes the temporary file and re-raises. Line ends are
    written as given.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # mode 0o666 less the umask
    try:
        with open(fd, "wb") as file:
            file.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _csv_text(header: list, rows: Iterable[list]) -> str:
    """CSV text, quoting cells that need it; ``str`` keeps a Python float's shortest repr."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(node: Any, pad: str = "\n") -> str:
    """Exactly ``json.dumps(node, indent=2, allow_nan=False)``, writing NumPy float arrays directly.

    ``json``'s ``indent`` encoder is pure Python and visits every float. Each
    array here is checked finite once, and its ``tolist()`` is joined by
    ``float.__repr__``, the rule ``json`` uses. Dicts, and lists holding a dict,
    list or array, take ``json``'s layout; every other node, a list of scalars
    whole, goes to ``json.dumps``. ``pad`` starts the line that closes ``node``.
    """
    inner = pad + "  "
    if isinstance(node, np.ndarray):
        if not np.isfinite(node).all():
            raise ValueError("Out of range float values are not JSON compliant")
        return _float_rows(node.tolist(), pad)
    if isinstance(node, dict) and node:
        # json's key rule: int, float, bool and None keys become strings, other types fail
        items = [json.dumps({k: 0})[1:-4] + ": " + _json_text(v, inner) for k, v in node.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(node, list) and any(isinstance(i, (dict, list, np.ndarray)) for i in node):
        items = [_json_text(item, inner) for item in node]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(node, indent=2, allow_nan=False).replace("\n", pad)


def _float_rows(rows: list, pad: str) -> str:
    """The ``indent=2`` layout of a float array's ``tolist()``."""
    if not rows:
        return "[]"
    inner = pad + "  "
    if isinstance(rows[0], list):
        items = [_float_rows(row, inner) for row in rows]
    else:
        items = map(float.__repr__, rows)
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Canonical JSON document for a scenario (kernels always written per step)."""
    return _scenario_doc(scenario, np.ndarray.tolist)


def _scenario_doc(scenario: Scenario, floats: Callable[[np.ndarray], Any]) -> dict[str, Any]:
    """The scenario's document, with ``floats`` applied to each of its own arrays."""
    return {
        "scenario_version": SCENARIO_VERSION,
        "name": scenario.name,
        "states": list(scenario.space.labels),
        "horizon": scenario.horizon,
        "target": {
            "initial": floats(scenario.target.initial.probs),
            "kernels": floats(scenario.target.matrices),
        },
        "contributors": [
            {"id": cid, "kernels": floats(matrices)}
            for cid, matrices in zip(scenario.contributors.ids, scenario.contributors.matrices)
        ],
        "rewards": {
            profile: floats(schedule.values) for profile, schedule in scenario.rewards.items()
        },
        "metadata": scenario.metadata,
    }


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a scenario as JSON; values survive a save/load round trip exactly.

    Python's float repr is shortest-round-trip, so every probability and
    reward is reproduced bit for bit by `load_scenario`. The file is replaced
    atomically; I/O failures propagate as OSError.
    """
    # free-form metadata goes to json.dumps first: an array or a NaN in it fails with json's error
    json.dumps(scenario.metadata, allow_nan=False)
    _atomic_write_text(path, _json_text(_scenario_doc(scenario, lambda array: array)) + "\n")


# ---------------------------------------------------------------------------
# policy files
# ---------------------------------------------------------------------------

POLICY_VERSION = 1


def save_policy(policy: Behavior, path: str | Path) -> None:
    """Write a behavior (e.g. a synthesized agent) as a JSON policy file, atomically."""
    doc = {
        "policy_version": POLICY_VERSION,
        "states": list(policy.space.labels),
        "initial": policy.initial.probs,
        "kernels": policy.matrices,
    }
    _atomic_write_text(path, _json_text(doc) + "\n")


def load_policy(
    path: str | Path, space: StateSpace | None = None, mode: str = "strict"
) -> Behavior:
    """Read a policy file back into a behavior.

    Args:
        path: JSON file written by `save_policy`.
        space: when given, the file's states must match it exactly.
        mode: row tolerance mode for validation.

    Raises:
        ValidationError: on parse or validation failure.
    """
    path = Path(path)
    doc = _read_json(path, "policy")

    def fail(message: str) -> ValidationError:
        return ValidationError(f"{path}: {message}")

    if not isinstance(doc, dict):
        raise fail("top level must be a JSON object")
    expected = {"policy_version", "states", "initial", "kernels"}
    if set(doc) != expected:
        raise fail(f"policy file must have exactly the keys {sorted(expected)}")
    if doc["policy_version"] != POLICY_VERSION:
        raise fail(
            f"policy_version must be {POLICY_VERSION}, got {doc['policy_version']!r}"
        )
    file_space = _parse_states(doc["states"], fail)
    if space is not None and file_space != space:
        raise fail("policy states do not match the scenario's states")
    return _parse_behavior(doc, file_space, None, mode, "policy", fail)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def generate_random_scenario(
    seed: int,
    d: int,
    horizon: int,
    contributors: int,
    sparsity: float = 0.0,
    reward_range: tuple[float, float] = (-1.0, 1.0),
    name: str | None = None,
) -> Scenario:
    """Draw a reproducible random scenario.

    Every row is a flat Dirichlet draw as ``Generator.dirichlet(ones(d))``
    makes it: ``d`` standard exponentials, summed left to right and scaled by
    ``1.0 / total``; then ``1e-6`` is added and the row divided by its sum.
    Target rows (and the initial pmf) are strictly positive, so any
    contributor row has finite KL divergence to its target row and the
    admissibility filter retains everything. Contributor rows are optionally
    sparsified entrywise with probability ``sparsity``, by ``d`` uniforms
    drawn after the row's exponentials (a row that would lose every entry
    keeps its largest), and renormalized.

    Randomness comes from NumPy's Philox4x64 counter-based generator seeded
    with ``seed``; the sequence of draws (initial pmf, target kernels in step
    then row order, contributor kernels in contributor/step/row order, reward
    profile last) is fixed, so identical arguments give identical scenarios
    on any platform under one NumPy release (NEP 19 lets the stream of
    ``Generator``'s methods change between releases).
    """
    if d < 1 or horizon < 1 or contributors < 1:
        raise ValueError("d, horizon, and contributors must all be >= 1")
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must lie in [0, 1)")
    lo, hi = float(reward_range[0]), float(reward_range[1])
    if not lo <= hi:
        raise ValueError("reward_range must satisfy lo <= hi")
    rng = np.random.Generator(np.random.Philox(seed))

    def pmf_rows(rows: np.ndarray, sparsity: float = 0.0) -> None:
        # in place, in blocks of 256 rows, drawn and normalised as the docstring says
        for block in np.split(rows, range(256, len(rows), 256)):
            if sparsity > 0.0:  # each row's exponentials, then its uniforms
                drop = np.empty(block.shape)
                for row, uniforms in zip(block, drop):
                    rng.standard_exponential(out=row)
                    rng.random(out=uniforms)
            else:
                rng.standard_exponential(out=block)
            block *= 1.0 / block.cumsum(axis=1)[:, -1:]  # Dirichlet's left-to-right sum
            block += 1e-6  # the floor keeps every entry positive
            block /= block.sum(axis=1, keepdims=True)
            if sparsity > 0.0:
                drop = drop < sparsity
                kept = drop.all(axis=1)  # such a row keeps its largest entry
                drop[kept, block[kept].argmax(axis=1)] = False
                block[drop] = 0.0
                block /= block.sum(axis=1, keepdims=True)

    space = StateSpace(tuple(range(d)))
    initial = np.empty(d)
    pmf_rows(initial.reshape(1, d))
    target = np.empty((horizon, d, d))
    pmf_rows(target.reshape(-1, d))  # step then row order
    pool = _mapped_empty((contributors, horizon, d, d))
    pmf_rows(pool.reshape(-1, d), sparsity)  # contributor, step, row order
    # every row is a positive pmf or a renormalised part of one, so it is valid as drawn
    target = Behavior._of(StatePMF(space, initial), target)
    pool = ContributorSet._of(space, pool, tuple(f"c{i + 1}" for i in range(contributors)))

    rewards = RewardSchedule(space, rng.uniform(lo, hi, size=(horizon, d)))
    metadata = {
        "generator": {
            "algorithm": "philox4x64",
            "seed": int(seed),
            "d": d,
            "horizon": horizon,
            "contributors": contributors,
            "sparsity": sparsity,
            "reward_range": [lo, hi],
        }
    }
    return Scenario(
        name or f"random-{seed}",
        space,
        target,
        pool,
        {"default": rewards},
        metadata,
    )


__all__ = [
    "SCENARIO_VERSION",
    "POLICY_VERSION",
    "Scenario",
    "demo_scenario_path",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "save_scenario",
    "save_policy",
    "load_policy",
    "generate_random_scenario",
]
