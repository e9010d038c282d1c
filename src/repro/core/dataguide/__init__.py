"""JSON DataGuide: the auto-computed dynamic soft schema (paper section 3).

* :mod:`~repro.core.dataguide.model` — path entries and the scalar type
  lattice used when merging instance skeletons;
* :mod:`~repro.core.dataguide.builder` — per-instance skeleton extraction
  and the collection-merge builder, the only code that maintains a
  DataGuide (the JSON search index keeps its persistent ``$DG`` table
  with one, :mod:`repro.index.search_index`);
* :mod:`~repro.core.dataguide.guide` — the DataGuide object with its flat
  and hierarchical JSON representations;
* :mod:`~repro.core.dataguide.aggregate` — JSON_DATAGUIDEAGG, the
  transient DataGuide as a SQL aggregate (section 3.4);
* :mod:`~repro.core.dataguide.views` — ``CreateViewOnPath``: DMDV view
  generation via JSON_TABLE (section 3.3.2);
* :mod:`~repro.core.dataguide.virtual_columns` — ``AddVC``: JSON_VALUE
  virtual columns (section 3.3.1).
"""

from repro.core.dataguide.aggregate import JsonDataGuideAgg, json_dataguide_agg
from repro.core.dataguide.builder import DataGuideBuilder, instance_entries
from repro.core.dataguide.guide import DataGuide
from repro.core.dataguide.model import PathEntry, generalize_scalar_type
from repro.core.dataguide.views import create_view_on_path
from repro.core.dataguide.virtual_columns import add_vc

__all__ = [
    "DataGuide",
    "DataGuideBuilder",
    "PathEntry",
    "JsonDataGuideAgg",
    "json_dataguide_agg",
    "instance_entries",
    "generalize_scalar_type",
    "create_view_on_path",
    "add_vc",
]
