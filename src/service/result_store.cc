#include "service/result_store.h"

#include <sstream>

#include "stats/json_writer.h"

namespace grit::service {

void
ResultStore::open(const std::string &path)
{
    std::ostringstream header;
    stats::JsonWriter w(header);
    w.beginObject();
    w.key("schema").value(kSchemaName);
    w.key("version").value(std::uint64_t{kSchemaVersion});
    w.endObject();
    RecordLog::open(path, header.str());
}

void
ResultStore::put(const harness::JournalEntry &entry)
{
    if (entry.status != "ok" || !entry.hasResult || entry.result.partial)
        throw sim::SimException(sim::ErrorCode::kJournal,
                                "only complete 'ok' results may be stored",
                                entry.row + "/" + entry.label);
    append(entry);
}

}  // namespace grit::service
