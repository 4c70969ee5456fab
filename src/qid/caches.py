"""The one memo of the series qid keeps between calls, one kind of key per
kind of series: ("f1", e) for f_1^e, an EtaExpression for its value,
("MT", sel) for a direct sum and ("AL", spec) for an Appell-Lerch sum.  A
key holds the longest series built for it; a request at or below that
order gets it truncated, a longer one calls build() and keeps the result
in its place.  Nothing is evicted.  A build may call kept() for other
keys, so nothing iterates the memo while one runs."""

_kept: dict = {}


def kept(key, order: int, build):
    """The series under key through q^order; build() must reach order."""
    s = _kept.get(key)
    if s is None or s.order < order:
        s = _kept[key] = build()
    return s.truncate(order)


def clear_all() -> None:
    """Forget every kept series, so that the next request builds anew."""
    _kept.clear()
