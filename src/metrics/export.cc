#include "export.hh"

#include <charconv>

#include "util/file_io.hh"
#include "util/logging.hh"

namespace mlpsim::metrics {

namespace {

/** Shortest-round-trip double, matching the JSON writer's format. */
std::string
formatDouble(double value)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), value);
    MLPSIM_ASSERT(res.ec == std::errc(), "double formatting failed");
    return std::string(buf, res.ptr);
}

JsonValue
metricToJson(const Metric &metric)
{
    JsonValue out = JsonValue::object();
    out.set("kind", metricKindName(metric.kind));
    switch (metric.kind) {
      case MetricKind::Counter:
        out.set("value", metric.counter);
        break;
      case MetricKind::Gauge:
        out.set("value", metric.gauge);
        break;
      case MetricKind::Stat:
      case MetricKind::Timer:
        out.set("count", metric.stat.count());
        out.set("mean", metric.stat.mean());
        out.set("min", metric.stat.min());
        out.set("max", metric.stat.max());
        out.set("sum", metric.stat.sum());
        break;
      case MetricKind::Hist: {
        out.set("samples", metric.hist.samples());
        out.set("mean", metric.hist.mean());
        if (metric.hist.samples()) {
            out.set("p50", metric.hist.quantile(0.5));
            out.set("p90", metric.hist.quantile(0.9));
            out.set("p99", metric.hist.quantile(0.99));
        }
        JsonValue buckets = JsonValue::array();
        for (const auto &[key, count] : metric.hist.buckets()) {
            JsonValue pair = JsonValue::array();
            pair.push(key);
            pair.push(count);
            buckets.push(std::move(pair));
        }
        out.set("buckets", std::move(buckets));
        break;
      }
    }
    return out;
}

} // namespace

JsonValue
toJson(const std::map<std::string, Metric> &snapshot, JsonValue meta,
       const SnapshotOptions &options)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", snapshotSchema);
    doc.set("meta", std::move(meta));
    JsonValue metrics = JsonValue::object();
    for (const auto &[path, metric] : snapshot) {
        if (metric.kind == MetricKind::Timer && !options.includeTimers)
            continue;
        metrics.set(path, metricToJson(metric));
    }
    doc.set("metrics", std::move(metrics));
    return doc;
}

std::string
toCsv(const std::map<std::string, Metric> &snapshot,
      const SnapshotOptions &options)
{
    // One fixed column set across kinds; inapplicable cells are empty.
    std::string out = "path,kind,count,value,mean,min,max\n";
    for (const auto &[path, metric] : snapshot) {
        if (metric.kind == MetricKind::Timer && !options.includeTimers)
            continue;
        out += path;
        out += ',';
        out += metricKindName(metric.kind);
        switch (metric.kind) {
          case MetricKind::Counter:
            out += ",," + std::to_string(metric.counter) + ",,,";
            break;
          case MetricKind::Gauge:
            out += ",," + formatDouble(metric.gauge) + ",,,";
            break;
          case MetricKind::Stat:
          case MetricKind::Timer:
            out += ',' + std::to_string(metric.stat.count()) + ",," +
                   formatDouble(metric.stat.mean()) + ',' +
                   formatDouble(metric.stat.min()) + ',' +
                   formatDouble(metric.stat.max());
            break;
          case MetricKind::Hist:
            out += ',' + std::to_string(metric.hist.samples()) + ",," +
                   formatDouble(metric.hist.mean()) + ',';
            if (metric.hist.samples()) {
                out += std::to_string(metric.hist.minKey()) + ',' +
                       std::to_string(metric.hist.maxKey());
            } else {
                out += ',';
            }
            break;
        }
        out += '\n';
    }
    return out;
}

Status
writeSnapshotFile(const std::string &path, JsonValue meta,
                  const SnapshotOptions &options)
{
    const auto snapshot = MetricRegistry::global().snapshot();
    const bool csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    if (!csv) {
        return writeJsonFile(path,
                             toJson(snapshot, std::move(meta), options));
    }
    return writeFileAtomic(path, toCsv(snapshot, options));
}

JsonValue
makeBenchPerfDoc(JsonValue results)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", benchPerfSchema);
    doc.set("results", std::move(results));
    return doc;
}

JsonValue
sweepReportToJson(std::size_t total_jobs, std::size_t retries,
                  const std::vector<JobFailure> &failures,
                  JsonValue meta)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", sweepReportSchema);
    doc.set("meta", std::move(meta));
    doc.set("jobs", uint64_t(total_jobs));
    doc.set("succeeded", uint64_t(total_jobs - failures.size()));
    doc.set("failed", uint64_t(failures.size()));
    doc.set("retries", uint64_t(retries));

    JsonValue list = JsonValue::array();
    for (const JobFailure &failure : failures) {
        JsonValue entry = JsonValue::object();
        entry.set("index", uint64_t(failure.index));
        entry.set("label", failure.label);
        entry.set("code", errorCodeName(failure.status.code()));
        entry.set("class", failureClassName(failure.failureClass()));
        entry.set("message", failure.status.message());
        entry.set("attempts", uint64_t(failure.attempts));
        entry.set("wall_ms", failure.wallMillis);
        list.push(std::move(entry));
    }
    doc.set("failures", std::move(list));
    return doc;
}

Status
writeSweepReportFile(const std::string &path, std::size_t total_jobs,
                     std::size_t retries,
                     const std::vector<JobFailure> &failures,
                     JsonValue meta)
{
    return writeJsonFile(path,
                         sweepReportToJson(total_jobs, retries, failures,
                                           std::move(meta)));
}

JsonValue
spansToTraceEvents(const std::vector<JobSpan> &spans)
{
    JsonValue events = JsonValue::array();
    for (const auto &span : spans) {
        JsonValue event = JsonValue::object();
        event.set("name", span.label);
        event.set("cat", "sweep");
        event.set("ph", "X");
        event.set("ts", span.startMillis * 1000.0);   // microseconds
        event.set("dur", span.durMillis * 1000.0);
        event.set("pid", uint64_t(1));
        event.set("tid", uint64_t(span.worker));
        events.push(std::move(event));
    }
    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
}

Status
writeTraceEventsFile(const std::string &path)
{
    return writeJsonFile(path,
                         spansToTraceEvents(SweepRunner::drainSpans()),
                         0);
}

} // namespace mlpsim::metrics
