"""Observability layer: event tracing, metrics, timeline export, audit.

The package is deliberately dependency-free within ``repro`` (it imports
nothing from ``sim``/``adcl``/``bench``) so every other layer can import
it without cycles.  The core contract is *zero overhead when disabled*:
``get_recorder()`` returns a no-op singleton unless a ``TraceRecorder``
has been installed, and instrumented hot paths cache
``rec if rec.enabled else None`` at construction time so the disabled
path costs a single ``is not None`` test.

See DESIGN.md §11 for the architecture and the event taxonomy.
"""

from .._lazy import lazy_exports

#: public name -> submodule defining it, imported on first use
_EXPORTS = {
    "AuditLog": ".audit",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "NULL_RECORDER": ".recorder",
    "NullRecorder": ".recorder",
    "TRACE_SCHEMA_VERSION": ".schema",
    "TelemetryServer": ".telemetry",
    "TraceRecorder": ".recorder",
    "analyze": ".critpath",
    "attach_explanations": ".critpath",
    "build_trace_doc": ".export",
    "correlation_id": ".telemetry",
    "dump_trace": ".export",
    "get_recorder": ".recorder",
    "install": ".recorder",
    "merge_snapshots": ".metrics",
    "merge_trace_docs": ".telemetry",
    "overlay_critical_path": ".critpath",
    "parse_exposition": ".telemetry",
    "recording": ".recorder",
    "render_critical_path": ".critpath",
    "render_exposition": ".telemetry",
    "render_report": ".report",
    "render_timeline": ".export",
    "scrape": ".telemetry",
    "trace_to_bytes": ".export",
    "uninstall": ".recorder",
    "validate_trace": ".schema",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
