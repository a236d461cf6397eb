"""A plain list of row dicts as an operator, for feeding joins and aggregates in tests."""

from repro.minidb.operators import Operator


class RowSource(Operator):
    def __init__(self, rows):
        super().__init__()
        self._rows = rows

    def _produce(self):
        for mapping in self._rows:
            yield dict(mapping)
