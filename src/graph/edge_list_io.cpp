#include "graph/edge_list_io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "graph/graph_builder.h"

namespace graphite {

namespace {

/**
 * Parse the next whitespace-separated field of @p line from @p pos as
 * an unsigned decimal vertex id: digits only, so a sign is rejected.
 * fatal() names @p path and @p lineNo when the field is missing or
 * malformed, or when the id leaves no room for |V| = id + 1 in a
 * VertexId.
 */
std::uint64_t
parseVertexId(const std::string &line, std::size_t &pos, const char *path,
              std::size_t lineNo)
{
    while (pos < line.size() && std::isspace(
                                    static_cast<unsigned char>(line[pos])))
        ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && !std::isspace(
                                    static_cast<unsigned char>(line[pos])))
        ++pos;
    std::uint64_t id = 0;
    const auto [end, ec] =
        std::from_chars(line.data() + start, line.data() + pos, id);
    if (start == pos || ec == std::errc::invalid_argument ||
        end != line.data() + pos) {
        fatal("malformed edge at %s:%zu: '%s'", path, lineNo,
              line.c_str());
    }
    if (ec == std::errc::result_out_of_range ||
        id >= std::numeric_limits<VertexId>::max()) {
        fatal("vertex id '%.*s' at %s:%zu exceeds the vertex id range "
              "(ids must be below %u)",
              static_cast<int>(pos - start), line.c_str() + start, path,
              lineNo, std::numeric_limits<VertexId>::max());
    }
    return id;
}

} // namespace

CsrGraph
loadEdgeList(const std::string &path, VertexId numVertices, bool undirected)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open edge list '%s'", path.c_str());

    // Every id is checked here, before the builder allocates anything.
    std::vector<std::pair<VertexId, VertexId>> edges;
    std::uint64_t maxId = 0;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t pos = 0;
        const std::uint64_t src =
            parseVertexId(line, pos, path.c_str(), lineNo);
        const std::uint64_t dst =
            parseVertexId(line, pos, path.c_str(), lineNo);
        if (numVertices != 0 && std::max(src, dst) >= numVertices) {
            fatal("vertex id %llu at %s:%zu is out of range for %u "
                  "vertices",
                  static_cast<unsigned long long>(std::max(src, dst)),
                  path.c_str(), lineNo, numVertices);
        }
        edges.emplace_back(static_cast<VertexId>(src),
                           static_cast<VertexId>(dst));
        maxId = std::max({maxId, src, dst});
    }
    // Ids stay below VertexId's maximum, so |V| = max id + 1 fits.
    if (numVertices == 0)
        numVertices = edges.empty() ? 0 : static_cast<VertexId>(maxId + 1);

    GraphBuilder builder(numVertices);
    for (const auto &[src, dst] : edges) {
        if (undirected)
            builder.addUndirectedEdge(src, dst);
        else
            builder.addEdge(src, dst);
    }
    return builder.build();
}

void
saveEdgeList(const CsrGraph &graph, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write edge list '%s'", path.c_str());
    out << "# graphite edge list: " << graph.numVertices() << " vertices, "
        << graph.numEdges() << " edges\n";
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        for (VertexId u : graph.neighbors(v))
            out << v << ' ' << u << '\n';
    }
}

} // namespace graphite
