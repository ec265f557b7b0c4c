"""Intra-group synchronous federated coordinator.

Holds one versioned global model per group, distributes it to registering
clients, averages client gradients at a synchronous round barrier, and applies
the averaged gradient with the shared number of frozen bottom layers.
Personalization (client-side convex mixing of local and global models) is a
pure function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .net import Gradients, ModelParams, apply_update, mean_gradients


class FederationError(ValueError):
    pass


class UpdateRejected(FederationError):
    pass


@dataclass
class GroupModel:
    group: int
    params: ModelParams
    version: int = 0


@dataclass(frozen=True)
class UpdateMessage:
    client: str
    group: int
    round: int
    gradients: Gradients


def personalize(local_prev: ModelParams, global_params: ModelParams,
                mix: float) -> ModelParams:
    """Convex mixing: mix*local_prev + (1-mix)*global, elementwise."""
    if not 0.0 <= mix <= 1.0:
        raise FederationError("mix must be in [0, 1]")
    if local_prev.layout != global_params.layout:
        raise FederationError("shape mismatch between local and global params")
    return ModelParams(mix * local_prev.flat + (1.0 - mix) * global_params.flat,
                       local_prev.layout)


class Coordinator:
    """Synchronous per-group parameter server. Single-executor scheduling only."""

    def __init__(self, server_lr: float, frozen_layers: int = 0,
                 transcript_path: str | Path | None = None):
        self.server_lr = server_lr
        self.frozen_layers = frozen_layers
        self._groups: dict[int, GroupModel] = {}
        self._members: dict[int, set[str]] = {}
        self._pending: dict[int, dict[str, Gradients]] = {}
        self._transcript = open(transcript_path, "w") if transcript_path else None

    def close(self):
        if self._transcript:
            self._transcript.close()
            self._transcript = None

    def _log(self, kind: str, **fields):
        if self._transcript:
            self._transcript.write(json.dumps({"event": kind, **fields}) + "\n")

    def seed_group(self, group: int, pretrained: ModelParams) -> GroupModel:
        if group in self._groups:
            raise FederationError(f"group {group} already seeded")
        gm = GroupModel(group, pretrained.copy(), version=0)
        self._groups[group] = gm
        self._members[group] = set()
        self._pending[group] = {}
        self._log("seed", group=group)
        return gm

    def _require_group(self, group: int) -> GroupModel:
        if group not in self._groups:
            raise FederationError(f"group {group} not seeded")
        return self._groups[group]

    def has_group(self, group: int) -> bool:
        return group in self._groups

    def group_ids(self) -> list[int]:
        return sorted(self._groups)

    def current_round(self, group: int) -> int:
        return self._require_group(group).version

    def fetch(self, group: int) -> tuple[ModelParams, int]:
        gm = self._require_group(group)
        return gm.params.copy(), gm.version

    def register(self, client: str, group: int) -> ModelParams:
        gm = self._require_group(group)
        if client in self._members[group]:
            raise FederationError(f"client {client!r} already registered in group {group}")
        self._members[group].add(client)
        self._log("register", client=client, group=group, version=gm.version)
        return gm.params.copy()

    def submit(self, update: UpdateMessage) -> None:
        gm = self._require_group(update.group)
        if update.client not in self._members[update.group]:
            raise UpdateRejected(f"client {update.client!r} not enrolled in group {update.group}")
        if update.round != gm.version:
            raise UpdateRejected(f"stale round {update.round} (current {gm.version})")
        if update.client in self._pending[update.group]:
            raise UpdateRejected(f"duplicate submission from {update.client!r} "
                                 f"for round {update.round}")
        if update.gradients.layout != gm.params.layout:
            raise UpdateRejected("gradient shape mismatch")
        self._pending[update.group][update.client] = update.gradients
        self._log("submit", client=update.client, group=update.group, round=update.round)

    def aggregate_round(self, group: int) -> GroupModel:
        gm = self._require_group(group)
        missing = self._members[group] - set(self._pending[group])
        if missing:
            raise FederationError(f"round barrier not satisfied for group {group}: "
                                  f"missing {sorted(missing)}")
        if not self._pending[group]:
            raise FederationError(f"group {group} has no submissions to aggregate")
        payloads = [self._pending[group][c] for c in sorted(self._pending[group])]
        gm.params = apply_update(gm.params, mean_gradients(payloads), self.server_lr,
                                 self.frozen_layers)
        gm.version += 1
        self._pending[group] = {}
        self._log("aggregate", group=group, version=gm.version, clients=len(payloads))
        return gm

    def migrate(self, client: str, from_group: int, to_group: int) -> ModelParams:
        target = self._require_group(to_group)
        self._require_group(from_group)
        if from_group == to_group:
            return target.params.copy()
        if self._pending[from_group].get(client) is not None:
            raise FederationError(f"client {client!r} has a pending submission; "
                                  "migrate only at round boundaries")
        self._members[from_group].discard(client)
        self._members[to_group].add(client)
        self._log("migrate", client=client, from_group=from_group, to_group=to_group,
                  version=target.version)
        return target.params.copy()
