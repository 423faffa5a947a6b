"""Serving layer: slot-packed serving of concurrent encrypted requests.

One front end over one packed-flush engine:

* :mod:`repro.serve.loop` -- the event-driven continuous-batching serving
  loop, the only way a packed request is queued: a deterministic
  virtual-time event queue that admits open-loop traffic into in-flight
  slot groups, sheds load off a queue-wait estimate, honors priority
  classes, and evicts requests whose hard SLO deadlines became hopeless.
  :mod:`repro.serve.traffic` generates the seeded open-loop traces
  (Poisson + bursty) that drive it.
* :mod:`repro.serve.scheduler` -- the flush engine the loop calls: one
  CRT-slot-packed hybrid pipeline pass per slot group (legal because the
  enclave is the key authority, so every enrolled user shares its key
  pair), with typed validation, per-request isolation and replica
  failover.
"""

from repro.serve.api import InferenceRequest, InferenceResult
from repro.serve.loop import (
    LoopConfig,
    LoopStats,
    LoopTicket,
    ServiceTimeModel,
    ServingLoop,
)
from repro.serve.scheduler import (
    PACKED_SCHEME,
    RequestScheduler,
    ServeStats,
)
from repro.serve.traffic import (
    Arrival,
    TrafficTrace,
    bursty_trace,
    merge,
    poisson_trace,
)

__all__ = [
    "PACKED_SCHEME",
    "Arrival",
    "InferenceRequest",
    "InferenceResult",
    "LoopConfig",
    "LoopStats",
    "LoopTicket",
    "RequestScheduler",
    "ServeStats",
    "ServiceTimeModel",
    "ServingLoop",
    "TrafficTrace",
    "bursty_trace",
    "merge",
    "poisson_trace",
]
