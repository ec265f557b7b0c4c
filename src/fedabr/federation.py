"""Intra-group synchronous federated coordinator.

Holds one versioned global model per group, started from a copy of the run's
starting model when the first client joins or migrates into the group,
averages client gradients at a synchronous round barrier, and applies the
averaged gradient with the shared number of frozen bottom layers.
Personalization (client-side convex mixing of local and global models) mixes
the local model in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .net import Gradients, ModelParams, apply_update


class FederationError(ValueError):
    pass


class UpdateRejected(FederationError):
    pass


@dataclass(frozen=True)
class UpdateMessage:
    client: str
    group: int
    round: int
    gradients: Gradients


@dataclass
class _Group:
    params: ModelParams
    version: int = 0
    members: set[str] = field(default_factory=set)
    pending: dict[str, Gradients] = field(default_factory=dict)


def personalize(local: ModelParams, global_params: ModelParams, mix: float) -> None:
    """Convex mixing in place, elementwise: local <- mix*local + (1-mix)*global."""
    if not 0.0 <= mix <= 1.0:
        raise FederationError("mix must be in [0, 1]")
    if local.layout != global_params.layout:
        raise FederationError("shape mismatch between local and global params")
    local.flat *= mix
    local.flat += (1.0 - mix) * global_params.flat


class Coordinator:
    """Synchronous per-group parameter server. Single-executor scheduling only."""

    def __init__(self, initial: ModelParams, server_lr: float, frozen_layers: int = 0):
        self._initial = initial.copy()
        self.server_lr = server_lr
        self.frozen_layers = frozen_layers
        self._groups: dict[int, _Group] = {}
        self.events: list[dict] = []  # the transcript, one dict per event in order

    def _log(self, kind: str, **fields):
        self.events.append({"event": kind, **fields})

    def _group(self, group: int) -> _Group:
        if group not in self._groups:
            raise FederationError(f"group {group} has no model: no client has joined it")
        return self._groups[group]

    def _join(self, group: int) -> _Group:
        """The group, started from the initial model the first time a client enters it."""
        if group not in self._groups:
            self._groups[group] = _Group(self._initial.copy())
            self._log("seed", group=group)
        return self._groups[group]

    def group_ids(self) -> list[int]:
        return sorted(self._groups)

    def current_round(self, group: int) -> int:
        return self._group(group).version

    def fetch(self, group: int) -> ModelParams:
        return self._group(group).params.copy()

    def register(self, client: str, group: int) -> ModelParams:
        g = self._join(group)
        if client in g.members:
            raise FederationError(f"client {client!r} already registered in group {group}")
        g.members.add(client)
        self._log("register", client=client, group=group, version=g.version)
        return g.params.copy()

    def submit(self, update: UpdateMessage) -> None:
        g = self._group(update.group)
        if update.client not in g.members:
            raise UpdateRejected(f"client {update.client!r} not enrolled in group {update.group}")
        if update.round != g.version:
            raise UpdateRejected(f"stale round {update.round} (current {g.version})")
        if update.client in g.pending:
            raise UpdateRejected(f"duplicate submission from {update.client!r} "
                                 f"for round {update.round}")
        if update.gradients.layout != g.params.layout:
            raise UpdateRejected("gradient shape mismatch")
        g.pending[update.client] = update.gradients
        self._log("submit", client=update.client, group=update.group, round=update.round)

    def aggregate_round(self, group: int) -> None:
        g = self._group(group)
        missing = g.members - g.pending.keys()
        if missing:
            raise FederationError(f"round barrier not satisfied for group {group}: "
                                  f"missing {sorted(missing)}")
        if not g.pending:
            raise FederationError(f"group {group} has no submissions to aggregate")
        # The sum over rows adds them one after another, in client-id order.
        mean = np.add.reduce([g.pending[c].flat for c in sorted(g.pending)])
        mean /= len(g.pending)
        apply_update(g.params, Gradients(mean, g.params.layout), self.server_lr,
                     self.frozen_layers)
        g.version += 1
        self._log("aggregate", group=group, version=g.version, clients=len(g.pending))
        g.pending = {}

    def migrate(self, client: str, from_group: int, to_group: int) -> ModelParams:
        source = self._group(from_group)
        if from_group == to_group:
            return source.params.copy()
        if client in source.pending:
            raise FederationError(f"client {client!r} has a pending submission; "
                                  "migrate only at round boundaries")
        target = self._join(to_group)
        source.members.discard(client)
        target.members.add(client)
        self._log("migrate", client=client, from_group=from_group, to_group=to_group,
                  version=target.version)
        return target.params.copy()
