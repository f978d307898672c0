"""Spatial database: typed tables, R-tree index, triggers (Section 5).

An in-memory substitute for the paper's PostGIS/PostgreSQL deployment
exposing the same surface: a spatial-objects table for the physical
model, a sensor-readings table with TTL expiry, a sensor-metadata
table (confidence / time-to-live), geometric operators, and location
triggers.
"""

from repro.spatialdb.database import (
    SENSOR_READINGS_SCHEMA,
    SENSOR_SPECS_SCHEMA,
    SPATIAL_OBJECTS_SCHEMA,
    SpatialDatabase,
)
from repro.spatialdb.query import SpatialQuery, execute_query, parse_query
from repro.spatialdb.rtree import RTree
from repro.spatialdb.table import Column, Row, Schema, Table, Trigger

__all__ = [
    "Column",
    "RTree",
    "Row",
    "SENSOR_READINGS_SCHEMA",
    "SENSOR_SPECS_SCHEMA",
    "SPATIAL_OBJECTS_SCHEMA",
    "Schema",
    "SpatialDatabase",
    "SpatialQuery",
    "Table",
    "Trigger",
    "execute_query",
    "parse_query",
]
