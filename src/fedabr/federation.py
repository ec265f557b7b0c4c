"""Intra-group synchronous federated coordinator: the one record of each client's group.

Holds one versioned global model per group, started from a copy of the run's
starting model when the first client joins or migrates into the group. A round
is one submission of the run's (K, n) gradient stack, row k client k's upload,
whose frozen bottom layers `sgd_step` has zeroed: the coordinator has no freeze
depth. A group's model steps by the mean of its clients' rows, summed in
client-id order. Personalization (client-side convex mixing of local and global
models) mixes the local model in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import Gradients, ModelParams, apply_update


class FederationError(ValueError):
    pass


@dataclass(frozen=True)
class UpdateMessage:
    """One round's updates: `clients[k]`'s gradient is row k of the (K, n) `gradients`."""
    clients: tuple[str, ...]
    gradients: Gradients


@dataclass
class _Group:
    params: ModelParams
    version: int = 0


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

    def __init__(self, initial: ModelParams, server_lr: float):
        self._initial = initial.copy()
        self.server_lr = server_lr
        self._groups: dict[int, _Group] = {}
        self._client_group: dict[str, int] = {}
        self._round: UpdateMessage | None = None  # the last submission
        self._rows: dict[int, list[int]] = {}  # its rows not yet aggregated, per group
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

    def group_of(self, client: str) -> int:
        if client not in self._client_group:
            raise FederationError(f"client {client!r} is not registered")
        return self._client_group[client]

    def register(self, client: str, group: int) -> ModelParams:
        if client in self._client_group:
            raise FederationError(f"client {client!r} already registered in group "
                                  f"{self._client_group[client]}")
        g = self._join(group)
        self._client_group[client] = group
        self._log("register", client=client, group=group, version=g.version)
        return g.params.copy()

    def submit(self, update: UpdateMessage) -> None:
        """Take one round's rows, one per registered client, for its group. They are read
        in place, not copied: `update.gradients` must keep its values until the next `submit`."""
        groups = [self.group_of(client) for client in update.clients]  # before any change
        self._round, self._rows = update, {}
        for k, (client, group) in enumerate(zip(update.clients, groups)):
            self._rows.setdefault(group, []).append(k)
            self._log("submit", client=client, group=group, round=self._groups[group].version)

    def aggregate_round(self, group: int) -> None:
        g = self._group(group)
        if group not in self._rows:
            raise FederationError(f"group {group} has no submissions to aggregate")
        rows = sorted(self._rows.pop(group), key=self._round.clients.__getitem__)
        # The sum over rows adds them one after another, in client-id order.
        mean = np.add.reduce(self._round.gradients.flat[rows])
        mean /= len(rows)
        apply_update(g.params, Gradients(mean, g.params.layout), self.server_lr)
        g.version += 1
        self._log("aggregate", group=group, version=g.version, clients=len(rows))

    def migrate(self, client: str, to_group: int) -> ModelParams:
        from_group = self.group_of(client)
        if from_group == to_group:
            return self._group(from_group).params.copy()
        target = self._join(to_group)
        self._client_group[client] = to_group
        self._log("migrate", client=client, from_group=from_group, to_group=to_group,
                  version=target.version)
        return target.params.copy()
