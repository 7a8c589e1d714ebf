"""repro.server — the network serving tier (asyncio shard RPC).

The front door of the build/serve split: a :mod:`repro.store` snapshot
built once is served to any number of network clients by
:class:`~repro.server.server.LabelServer`, which fans coalesced
fault-set chunks out to shard workers mmap'ing that one snapshot and
supports zero-downtime blue/green snapshot reload.

* :mod:`repro.server.protocol` — versioned length-prefixed binary
  frames (queries, answers, errors, stats, admin reload) and the
  bit-exact wire codecs for scheme answers;
* :mod:`repro.server.server` — the asyncio server: coalescing,
  shard fan-out, backpressure, deadlines, generation swap;
* :mod:`repro.server.client` — blocking and asyncio clients that
  rebuild native answer dataclasses from the wire.

See ``src/repro/server/README.md`` for the serving trace.
"""

from repro.server.client import (
    AsyncQueryClient,
    QueryClient,
    ServerError,
    StatsReport,
)
from repro.server.protocol import (
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameType,
    ProtocolError,
    encode_frame,
)
from repro.server.server import (
    BadQueryError,
    LabelServer,
    ShardLostError,
    run_server,
)

__all__ = [
    "AsyncQueryClient",
    "BadQueryError",
    "ErrorCode",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "LabelServer",
    "ProtocolError",
    "QueryClient",
    "ServerError",
    "ShardLostError",
    "StatsReport",
    "encode_frame",
    "run_server",
]
