"""Whole-table reads and writes for the tests, through the block reader and writer."""

from pathlib import Path

import numpy as np

from bellmeter.counts import COUNT_COLUMNS, Column
from bellmeter.dataset import TableReader, write_table


def read_columns(path):
    """Each column of a dataset by name, its blocks joined into one array (float64 once one is)."""
    table = TableReader(path)
    blocks = list(table.blocks(table.columns))
    return {name: np.concatenate([block[j] for block in blocks] or [[]]) for j, name in enumerate(table.columns)}


def write_columns(path, columns, data, metadata=None):
    """Write the columns `data` (array-likes of one length) as one block, with the sidecar `metadata`;
    each is written exactly, a count column as a count and any other as a coordinate."""
    records = [Column(name, "count" if name in COUNT_COLUMNS else "coordinate") for name in columns]
    write_table(Path(path), records, [[np.asarray(values) for values in data]], metadata or {})
