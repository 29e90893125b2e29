#include "trace/catalog.hh"

#include <algorithm>
#include <filesystem>

#include "common/logging.hh"
#include "trace/io.hh"
#include "trace/streaming.hh"
#include "trace/synthetic.hh"

namespace acic {

WorkloadEntry
WorkloadEntry::traceFile(std::string name_, std::string path_,
                         std::uint64_t instructions)
{
    WorkloadEntry entry;
    entry.source = WorkloadSource::TraceFile;
    entry.params.name = std::move(name_);
    entry.params.instructions = instructions;
    entry.path = std::move(path_);
    entry.suite = "imported";
    return entry;
}

WorkloadEntry
WorkloadEntry::stream(const std::string &spec)
{
    WorkloadEntry entry;
    entry.source = WorkloadSource::Stream;
    entry.params.name = spec;
    // "pipe:PATH" strips to the path; "-" stays as the stdin marker
    // StreamingTraceSource::openPath understands.
    entry.path = spec.rfind("pipe:", 0) == 0 ? spec.substr(5) : spec;
    entry.suite = "stream";
    return entry;
}

bool
WorkloadEntry::isStreamSpec(const std::string &text)
{
    return text == "-" || text.rfind("pipe:", 0) == 0;
}

std::unique_ptr<TraceSource>
WorkloadEntry::open() const
{
    if (source == WorkloadSource::Stream)
        return StreamingTraceSource::openPath(path);
    if (source == WorkloadSource::TraceFile)
        return std::make_unique<FileTraceSource>(path);
    return std::make_unique<SyntheticWorkload>(params);
}

WorkloadCatalog
WorkloadCatalog::builtin()
{
    WorkloadCatalog catalog;
    for (auto &params : Workloads::datacenter()) {
        WorkloadEntry entry(std::move(params));
        entry.suite = "datacenter";
        catalog.add(std::move(entry));
    }
    for (auto &params : Workloads::spec()) {
        WorkloadEntry entry(std::move(params));
        entry.suite = "spec";
        catalog.add(std::move(entry));
    }
    return catalog;
}

void
WorkloadCatalog::add(WorkloadEntry entry)
{
    for (auto &existing : entries_) {
        if (existing.name() == entry.name()) {
            existing = std::move(entry);
            return;
        }
    }
    entries_.push_back(std::move(entry));
}

std::size_t
WorkloadCatalog::addTraceDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        const std::string msg =
            "trace directory not found: " + dir;
        ACIC_FATAL(msg.c_str());
    }

    std::vector<fs::path> files;
    for (const auto &it : fs::directory_iterator(dir, ec)) {
        const fs::path &p = it.path();
        if (p.extension() == TraceFormat::suffix())
            files.push_back(p);
    }
    std::sort(files.begin(), files.end());

    std::size_t added = 0;
    for (const auto &p : files) {
        TraceHeader info;
        if (!readTraceHeader(p.string(), info)) {
            const std::string msg =
                "skipping invalid trace file " + p.string();
            warn(msg.c_str());
            continue;
        }
        WorkloadEntry entry = WorkloadEntry::traceFile(
            p.stem().string(), p.string(), info.instructions);
        // Overlaying a preset keeps its suite (the file is still a
        // datacenter/spec workload); only new names are "imported".
        if (const WorkloadEntry *existing = find(entry.name()))
            entry.suite = existing->suite;
        add(std::move(entry));
        ++added;
    }
    return added;
}

const WorkloadEntry *
WorkloadCatalog::find(const std::string &name) const
{
    for (const auto &entry : entries_)
        if (entry.name() == name)
            return &entry;
    return nullptr;
}

std::vector<WorkloadEntry>
WorkloadCatalog::resolve(const std::string &list) const
{
    std::vector<WorkloadEntry> out;
    if (list == "all") {
        out = entries_;
    } else if (list.rfind("all-", 0) == 0) {
        const std::string suite = list.substr(4);
        if (suite != "datacenter" && suite != "spec" &&
            suite != "imported") {
            const std::string msg =
                "unknown workload group '" + list + "'";
            ACIC_FATAL(msg.c_str());
        }
        for (const auto &entry : entries_)
            if (entry.suite == suite)
                out.push_back(entry);
    } else {
        std::size_t start = 0;
        while (start <= list.size()) {
            const std::size_t comma = list.find(',', start);
            const std::string name = list.substr(
                start, comma == std::string::npos ? std::string::npos
                                                  : comma - start);
            if (!name.empty()) {
                if (WorkloadEntry::isStreamSpec(name)) {
                    out.push_back(WorkloadEntry::stream(name));
                } else {
                    const WorkloadEntry *entry = find(name);
                    if (!entry) {
                        const std::string msg =
                            "unknown workload '" + name + "'";
                        ACIC_FATAL(msg.c_str());
                    }
                    out.push_back(*entry);
                }
            }
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
    }
    if (out.empty()) {
        const std::string msg =
            "workload list '" + list + "' resolves to nothing";
        ACIC_FATAL(msg.c_str());
    }
    return out;
}

} // namespace acic
