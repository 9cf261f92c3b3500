"""CSV layouts shared by the live runners, the simulator and reports."""

import csv

MONITOR_COLUMNS = ("receive_time", "seq", "gen_ts")
ACK_COLUMNS = ("ack_time", "seq", "rtt")
TRACE_COLUMNS = ("time", "source_id", "kind", "seq")
EPOCH_LOG_COLUMNS = ("k", "t_k", "lambda", "action", "b_star", "b_k", "delta_k", "flag", "gamma")


def write_rows(path, columns, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)


def write_epoch_log(path, rows):
    write_rows(path, EPOCH_LOG_COLUMNS, rows)


def write_monitor_log(path, rows):
    write_rows(path, MONITOR_COLUMNS, rows)


def write_ack_log(path, rows):
    write_rows(path, ACK_COLUMNS, rows)


def write_trace(path, rows):
    write_rows(path, TRACE_COLUMNS, rows)


def read_header(path):
    """The first row of a CSV file as a tuple; () if it is empty or not text."""
    try:
        with open(path, newline="") as fh:
            return tuple(next(csv.reader(fh), ()))
    except (OSError, UnicodeDecodeError, csv.Error):
        return ()


# the type of each endpoint log column, by its header name
COLUMN_TYPES = {"receive_time": float, "ack_time": float, "seq": int, "gen_ts": int,
                "rtt": float}


def read_log(path):
    """An endpoint log's columns as lists, each typed by its name in the header row.

    A row whose field count is not the header's raises ValueError; blank rows are skipped.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, ())
        types = [COLUMN_TYPES[name] for name in header]
        columns = tuple([] for _ in header)
        for row in reader:
            if len(row) != len(header):
                if not row:
                    continue
                raise ValueError(f"row {reader.line_num} has {len(row)} fields, "
                                 f"the header {len(header)}")
            for column, kind, field in zip(columns, types, row):
                column.append(kind(field))
    return columns


def ack_csv_path(out_path):
    """Companion file holding the source's per-ACK RTT samples."""
    base = str(out_path)
    if base.endswith(".csv"):
        base = base[: -len(".csv")]
    return base + "_acks.csv"
