"""Report dataclasses: the payloads peers send to the log server.

Section V.A defines two classes of report.  *Activity reports* (join,
start-subscription, media-player-ready, leave) are sent immediately when
the event occurs.  *Status reports* are sent every five minutes and come in
three types: QoS (perceived quality, e.g. fraction of video missing at the
playback deadline), traffic (bytes up/down) and partner (a compact series
of partner add/drop activities, batched to reduce log-server load).

Each report class declares its wire schema once, as a ``WIRE`` table of
:class:`Wire` rows (wire key, attribute, formatter, parser, value when
missing).  :class:`Report` derives ``to_params`` (the flat ``name=value``
dict of the log-string codec), ``to_log_string`` (the same parameters
straight to the wire) and ``from_params`` (parse back) from the tables
when each class is created, so the three cannot drift apart.
``session_id`` ties the four activity events of one session together;
``user_id`` ties a user's retry sessions together (Fig. 10b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (Any, Callable, ClassVar, Dict, NamedTuple, Optional,
                    Tuple, Type, Union)
from urllib.parse import quote

from .logstring import LOG_PATH

__all__ = [
    "ActivityEvent",
    "LeaveReason",
    "REQUIRED",
    "Wire",
    "Report",
    "ActivityReport",
    "QoSReport",
    "TrafficReport",
    "PartnerOp",
    "PartnerEvent",
    "PartnerReport",
    "parse_report",
]


class ActivityEvent(str, enum.Enum):
    """The four session events of Section V.C."""

    JOIN = "join"
    START_SUBSCRIPTION = "sub"
    PLAYER_READY = "ready"
    LEAVE = "leave"


class LeaveReason(str, enum.Enum):
    """Why a session ended (ours; the paper infers this from durations)."""

    NORMAL = "normal"          # user chose to stop watching
    PROGRAM_END = "prog_end"   # broadcast ended (the 22:00 drop of Fig. 5b)
    IMPATIENCE = "impatience"  # gave up before the player became ready
    FAILURE = "failure"        # abrupt disconnect (no leave report reaches
                               # the server in this case -- see NodeReporter)


#: ``Wire.missing`` of a field the log string must carry
REQUIRED: Any = object()


class Wire(NamedTuple):
    """One wire field: a ``key=value`` parameter <-> one report attribute.

    ``fmt`` is either a one-field ``str.format`` template for the
    attribute value (``"{:.3f}"``, ``"{.value}"`` for enums, ``"{:d}"``
    for bools) whose output must be RFC 3986 unreserved -- numbers and
    enum values are -- or a callable returning free text, which the log
    string percent-encodes.  ``parse`` maps the decoded text back.
    ``missing`` is the value a log string without the key decodes to
    (:data:`REQUIRED`: such a line is rejected); an ``optional`` field
    is left off the wire while the attribute holds its ``missing`` value.
    """

    key: str
    attr: str
    fmt: Union[str, Callable[[Any], str]]
    parse: Callable[[str], Any]
    missing: Any = REQUIRED
    optional: bool = False

    def log_pair(self) -> Callable[[Any], str]:
        """``value -> "&key=value"``, as the log string carries it."""
        if callable(self.fmt):
            prefix, fmt = f"&{self.key}=", self.fmt
            return lambda value: prefix + quote(fmt(value), safe="")
        return f"&{self.key}={self.fmt}".format


#: bool parser: "1" is True, any other text False
_flag = "1".__eq__


def _compile_codec(type_: str,
                   rows: Tuple[Wire, ...]) -> Tuple[Callable, Callable]:
    """Generate the log-string encoder and the decoder of a report class.

    Both are generated source, the way ``dataclasses`` generates
    ``__init__``.  The encoder is one f-string: a row written on every
    report becomes ``&key={self.attr:spec}``, an optional or free-text
    row a ``&key=value``-or-nothing piece.  The decoder is one
    constructor call with a ``parse(p["key"])`` argument per row.
    Reports are encoded and decoded millions of times at paper scale:
    generated code costs what hand-written methods did, while a
    ``str.format`` template and a decode loop over the rows were
    measurably slower.
    """
    namespace: Dict[str, Any] = {}
    encode = [f"{LOG_PATH}?type={type_}"]
    decode = []
    for i, row in enumerate(rows):
        value = f"self.{row.attr}"
        if row.optional or callable(row.fmt):
            # no attribute value equals REQUIRED, so a free-text row
            # that is not optional is always written
            namespace[f"omit{i}"] = row.missing if row.optional else REQUIRED
            namespace[f"pair{i}"] = row.log_pair()
            encode.append(f"{{'' if {value} == omit{i} else pair{i}({value})}}")
        else:
            encode.append(f"&{row.key}={{{value}{row.fmt[1:]}")
        namespace[f"parse{i}"], namespace[f"missing{i}"] = row.parse, row.missing
        arg = f"parse{i}(p[{row.key!r}])"
        if row.missing is not REQUIRED:
            arg = f"{arg} if {row.key!r} in p else missing{i}"
        decode.append(f"{row.attr}={arg}")
    exec(f'def encode(self):\n    return f"{"".join(encode)}"\n'
         f'def decode(cls, p):\n    return cls({", ".join(decode)})\n',
         namespace)
    return namespace["encode"], namespace["decode"]


@dataclass(frozen=True)
class Report:
    """Common report header, and the codec every report class shares.

    A class's wire schema is the ``WIRE`` rows of its bases followed by
    its own, in wire order, after the leading ``type`` key.  Class
    creation generates ``to_log_string``'s encoder and ``from_params``'s
    decoder from the rows (see :func:`_compile_codec`); ``to_params``
    walks them.
    """

    time: float
    node_id: int
    user_id: int
    session_id: int

    TYPE: ClassVar[str] = "?"
    WIRE: ClassVar[Tuple[Wire, ...]] = (
        Wire("t", "time", "{:.3f}", float),
        Wire("node", "node_id", "{}", int),
        Wire("user", "user_id", "{}", int),
        Wire("sess", "session_id", "{}", int),
    )

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        rows = tuple(row for klass in reversed(cls.__mro__)
                     for row in vars(klass).get("WIRE", ()))
        cls._ROWS = rows
        encode, decode = _compile_codec(cls.TYPE, rows)
        cls._log_string, cls._decode = encode, classmethod(decode)

    def to_params(self) -> Dict[str, str]:
        """Serialize to the flat ``name=value`` parameter dict."""
        params = {"type": self.TYPE}
        for key, attr, fmt, _, missing, optional in self._ROWS:
            value = getattr(self, attr)
            if not (optional and value == missing):
                params[key] = fmt(value) if callable(fmt) else fmt.format(value)
        return params

    def to_log_string(self) -> str:
        """Encode straight to the wire log string.

        Always equals ``encode_log_string(self.to_params())``, without
        the dict round-trip.
        """
        return self._log_string()

    @classmethod
    def from_params(cls, p: Dict[str, str]) -> "Report":
        """Parse back from a decoded parameter dict.

        Raises ``ValueError`` naming the key when a required field is
        absent, like any other malformed value.
        """
        try:
            return cls._decode(p)
        except KeyError as exc:
            raise ValueError(f"{cls.TYPE!r} report lacks required field "
                             f"{exc.args[0]!r}") from None


@dataclass(frozen=True)
class ActivityReport(Report):
    """Immediate join / start-subscription / player-ready / leave report."""

    event: ActivityEvent = ActivityEvent.JOIN
    attempt: int = 1                      # 1-based join attempt (retries)
    address_public: bool = True           # what the client can see locally
    reason: Optional[LeaveReason] = None  # only for LEAVE

    TYPE: ClassVar[str] = "act"
    WIRE: ClassVar[Tuple[Wire, ...]] = (
        Wire("ev", "event", "{.value}", ActivityEvent),
        Wire("try", "attempt", "{}", int, 1),
        Wire("pub", "address_public", "{:d}", _flag, True),
        Wire("why", "reason", "{.value}", LeaveReason, None, optional=True),
    )


@dataclass(frozen=True)
class QoSReport(Report):
    """Perceived quality over the last report window.

    ``continuity`` is the window continuity index (``None`` when no blocks
    came due yet -- the client omits the field, as a player that has not
    started has no playback quality to report).
    """

    continuity: Optional[float] = None
    buffered_seconds: float = 0.0
    n_parents: int = 0
    playing: bool = False

    TYPE: ClassVar[str] = "qos"
    WIRE: ClassVar[Tuple[Wire, ...]] = (
        Wire("ci", "continuity", "{:.5f}", float, None, optional=True),
        Wire("buf", "buffered_seconds", "{:.2f}", float, 0.0),
        Wire("par", "n_parents", "{}", int, 0),
        Wire("play", "playing", "{:d}", _flag, False),
    )


@dataclass(frozen=True)
class TrafficReport(Report):
    """Bytes moved since the previous traffic report (plus totals)."""

    bytes_up: float = 0.0
    bytes_down: float = 0.0
    total_up: float = 0.0
    total_down: float = 0.0

    TYPE: ClassVar[str] = "traf"
    WIRE: ClassVar[Tuple[Wire, ...]] = (
        Wire("up", "bytes_up", "{:.0f}", float),
        Wire("down", "bytes_down", "{:.0f}", float),
        Wire("tup", "total_up", "{:.0f}", float, 0.0),
        Wire("tdown", "total_down", "{:.0f}", float, 0.0),
    )


class PartnerOp(str, enum.Enum):
    """Partner activity kind in the compact event series."""

    ADD = "a"
    DROP = "d"


@dataclass(frozen=True)
class PartnerEvent:
    """One partner add/drop, with direction seen from the reporting node."""

    time: float
    op: PartnerOp
    partner_id: int
    incoming: bool  # True when the partner initiated the partnership

    def encode(self) -> str:
        """Encode to the compact wire token."""
        d = "i" if self.incoming else "o"
        return f"{self.time:.1f}:{self.op.value}:{self.partner_id}:{d}"

    @classmethod
    def decode(cls, token: str) -> "PartnerEvent":
        """Parse a compact wire token."""
        t, op, pid, d = token.split(":")
        return cls(time=float(t), op=PartnerOp(op), partner_id=int(pid),
                   incoming=(d == "i"))


def _encode_events(events: Tuple[PartnerEvent, ...]) -> str:
    return "|".join(e.encode() for e in events)


def _decode_events(text: str) -> Tuple[PartnerEvent, ...]:
    if not text:
        return ()
    return tuple(PartnerEvent.decode(tok) for tok in text.split("|"))


@dataclass(frozen=True)
class PartnerReport(Report):
    """Compact series of partner activities since the last status report.

    "Since the nodes might change partners frequently, we use a compact
    report that records a series of activities to reduce log server's
    load." (Section V.A)
    """

    events: tuple[PartnerEvent, ...] = field(default_factory=tuple)
    n_partners: int = 0
    n_incoming: int = 0
    n_outgoing: int = 0

    TYPE: ClassVar[str] = "part"
    WIRE: ClassVar[Tuple[Wire, ...]] = (
        Wire("np", "n_partners", "{}", int, 0),
        Wire("nin", "n_incoming", "{}", int, 0),
        Wire("nout", "n_outgoing", "{}", int, 0),
        # the event tokens carry ":" / "|" separators: free text
        Wire("pev", "events", _encode_events, _decode_events, (),
             optional=True),
    )


_REGISTRY: Dict[str, Type[Report]] = {
    ActivityReport.TYPE: ActivityReport,
    QoSReport.TYPE: QoSReport,
    TrafficReport.TYPE: TrafficReport,
    PartnerReport.TYPE: PartnerReport,
}


def parse_report(params: Dict[str, str]) -> Report:
    """Dispatch a decoded parameter dict to the right report class."""
    try:
        cls = _REGISTRY[params["type"]]
    except KeyError:
        raise ValueError(f"unknown report type {params.get('type')!r}") from None
    return cls.from_params(params)
