"""The per-row samples.csv writer, kept as the test reference for
`cli.write_artifacts`, which writes the table in blocks of `driver.CHUNK_SIZE`
rows, column by column: here every float of an ok row is formatted on its own
with %.17g, NaN error estimates and denominators as empty fields, failed rows
as a status and five empty fields."""
import math

_FMT = "%.17g"


def sample_lines(sample_log):
    for level, index, ok, qf, qc, y, err, den in sample_log.tolist():
        if ok:
            err_s = "" if math.isnan(err) else _FMT % err
            den_s = "" if math.isnan(den) else _FMT % den
            yield (f"{level},{index},ok,{_FMT % qf},{_FMT % qc},{_FMT % y},"
                   f"{err_s},{den_s}\n")
        else:
            yield f"{level},{index},failed,,,,,\n"
