"""Immutable keyword records, compared and copied by their fields.

A subclass names its fields in ``FIELDS`` and stores them from its own
``__init__`` through ``_set``, after validating them there, so every copy
made by ``replace`` is validated again.
"""


class Record:
    FIELDS: tuple = ()

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def as_dict(self) -> dict:
        """The fields, in ``FIELDS`` order."""
        return {name: self.__dict__[name] for name in self.FIELDS}

    def replace(self, **changes):
        """A new record with ``changes`` applied, built (and validated) by the constructor."""
        return type(self)(**{**self.as_dict(), **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash(tuple(self.as_dict().values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.as_dict().items())
        return f"{type(self).__name__}({fields})"
