"""Exact cohomology of the second Voronoi compactification of the moduli
space of principally polarized abelian threefolds."""

__version__ = "0.1.0"


class Avor3Error(Exception):
    """A failure that the input or data cause; the CLI reports it in one line."""


class InputError(Avor3Error, ValueError):
    """InputError(path, message): malformed input, shown as "path: message",
    or as the bare message when the document position `path` is ""."""

    def __str__(self):
        return "%s: %s" % self.args if self.args[0] else self.args[1]


class Checked:
    """First base, before its namedtuple, of a record whose `__new__` checks or
    normalises the fields: `_make`, and so `_replace`, go through `__new__`."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
