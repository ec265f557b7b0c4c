"""Intra-group synchronous federated coordinator: the one record of each client's group.

Holds one versioned global model per group, started from a copy of the run's
starting model when the first client joins or migrates into the group. A round
is one `submit` of the run's (K, n) gradient stack, row k client k's upload,
whose frozen bottom layers `sgd_step` has zeroed: the coordinator has no freeze
depth. `submit` steps every group the round touched, in ascending group id, by
the mean of its clients' rows, summed in client-id order; no round is kept
between calls. Personalization (client-side convex mixing of local and global
models) mixes the local model in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import DivergenceError, Gradients, ModelParams, apply_update


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


def personalize(local: ModelParams, global_params: ModelParams, mix: float, frozen=0) -> None:
    """Convex mixing in place, elementwise, of all but the first `frozen` layers:
    local <- mix*local + (1-mix)*global (frozen w mixed with w is w only for some `mix`)."""
    if not 0.0 <= mix <= 1.0:
        raise FederationError("mix must be in [0, 1]")
    if local.layout != global_params.layout:
        raise FederationError("shape mismatch between local and global params")
    # Whole rows, then the frozen part put back: numpy is slower on a stack's row tails.
    kept = local.flat[..., :local.layout.offsets[frozen]].copy()
    local.flat *= mix
    local.flat += (1.0 - mix) * global_params.flat
    local.flat[..., :local.layout.offsets[frozen]] = kept


class Coordinator:
    """Synchronous per-group parameter server. Single-executor scheduling only."""

    def __init__(self, initial: ModelParams, server_lr: float):
        self._initial = initial.copy()
        self.server_lr = server_lr
        self._groups: dict[int, _Group] = {}
        self._client_group: dict[str, int] = {}
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
        """One round: log every client's upload in stack order, then step each group the
        message touched, in ascending group id, by the mean of its rows in client-id order.
        FederationError, before any change, for a client listed twice or not registered, or
        for gradients that are not one row per client in the starting model's layout."""
        clients, grads, layout = update.clients, update.gradients, self._initial.layout
        if len(set(clients)) < len(clients):
            twice = next(c for i, c in enumerate(clients) if c in clients[:i])
            raise FederationError(f"client {twice!r} is listed twice in one round")
        if grads.layout != layout or grads.flat.shape != (len(clients), layout.offsets[-1]):
            raise FederationError(f"gradients of shape {grads.flat.shape} for {len(clients)} "
                                  f"clients: need one row per client, in layers {layout.shapes}")
        groups = [self.group_of(client) for client in clients]  # before any change
        for client, group in zip(clients, groups):
            self._log("submit", client=client, group=group, round=self._groups[group].version)
        by_id = sorted(range(len(groups)), key=clients.__getitem__)
        for group in sorted(set(groups)):
            rows = [k for k in by_id if groups[k] == group]
            self.aggregate_round(group, grads.flat[rows])

    def aggregate_round(self, group: int, rows: np.ndarray) -> None:
        g = self._groups[group]
        mean = np.add.reduce(rows)  # adds the rows one after another
        mean /= len(rows)
        try:
            apply_update(g.params, Gradients(mean, g.params.layout), self.server_lr)
        except DivergenceError as e:
            raise DivergenceError(f"group {group} model, round {g.version}: {e}") from None
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
