#include "harness/cli.h"

#include <cassert>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "simcore/sim_error.h"

namespace grit::harness {

namespace {

[[noreturn]] void
badArgument(const std::string &program, const std::string &message)
{
    throw sim::SimException(sim::ErrorCode::kBadArgument,
                            program + ": " + message +
                                " (try --help for the flag list)");
}

}  // namespace

Cli::Cli(std::string program, std::string title)
    : program_(std::move(program)), title_(std::move(title))
{
}

void
Cli::flag(const std::string &name, bool *out, const std::string &help,
          const std::string &alias)
{
    flags_.push_back({name, alias, {}, help, Kind::kBool, out});
}

void
Cli::flag(const std::string &name, std::string *out,
          const std::string &value_name, const std::string &help,
          const std::string &alias)
{
    flags_.push_back({name, alias, value_name, help, Kind::kString, out});
}

void
Cli::flag(const std::string &name, double *out,
          const std::string &value_name, const std::string &help,
          const std::string &alias)
{
    flags_.push_back({name, alias, value_name, help, Kind::kDouble, out});
}

void
Cli::flag(const std::string &name, std::uint64_t *out,
          const std::string &value_name, const std::string &help,
          const std::string &alias)
{
    flags_.push_back({name, alias, value_name, help, Kind::kUint64, out});
}

void
Cli::flag(const std::string &name, unsigned *out,
          const std::string &value_name, const std::string &help,
          const std::string &alias)
{
    flags_.push_back(
        {name, alias, value_name, help, Kind::kUnsigned, out});
}

void
Cli::positional(const std::string &name, std::string *out,
                const std::string &help, bool required)
{
    assert((positionals_.empty() || positionals_.back().required ||
            !required) &&
           "required positionals must precede optional ones");
    positionals_.push_back({name, help, required, out});
}

const Cli::Flag *
Cli::findFlag(const std::string &token) const
{
    for (const Flag &f : flags_) {
        if (token == f.name || (!f.alias.empty() && token == f.alias))
            return &f;
    }
    return nullptr;
}

void
Cli::assign(const Flag &flag, const std::string &value) const
{
    const char *text = value.c_str();
    char *end = nullptr;
    switch (flag.kind) {
    case Kind::kBool:
        assert(false && "bool flags take no value");
        break;
    case Kind::kString:
        *static_cast<std::string *>(flag.out) = value;
        return;
    case Kind::kDouble: {
        const double v = std::strtod(text, &end);
        if (end == text || *end != '\0')
            badArgument(program_, flag.name + " needs a number, got \"" +
                                      value + "\"");
        *static_cast<double *>(flag.out) = v;
        return;
    }
    case Kind::kUint64: {
        const std::uint64_t v = std::strtoull(text, &end, 10);
        if (end == text || *end != '\0')
            badArgument(program_, flag.name +
                                      " needs a whole number, got \"" +
                                      value + "\"");
        *static_cast<std::uint64_t *>(flag.out) = v;
        return;
    }
    case Kind::kUnsigned: {
        const unsigned long v = std::strtoul(text, &end, 10);
        if (end == text || *end != '\0')
            badArgument(program_, flag.name +
                                      " needs a whole number, got \"" +
                                      value + "\"");
        *static_cast<unsigned *>(flag.out) = static_cast<unsigned>(v);
        return;
    }
    }
}

bool
Cli::parse(int argc, char **argv)
{
    std::size_t next_positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (token == "--help" || token == "-h") {
            printHelp(std::cout);
            return false;
        }
        if (token.size() > 1 && token[0] == '-') {
            const std::size_t eq = token.find('=');
            const std::string name =
                eq == std::string::npos ? token : token.substr(0, eq);
            const Flag *flag = findFlag(name);
            std::string value;
            bool attached = eq != std::string::npos;
            if (attached) {
                value = token.substr(eq + 1);
            } else if (flag == nullptr && token[1] != '-') {
                // A short alias with its value attached: -j4.
                flag = findFlag(token.substr(0, 2));
                if (flag != nullptr && flag->kind == Kind::kBool)
                    flag = nullptr;
                value = token.substr(2);
                attached = true;
            }
            if (flag == nullptr)
                badArgument(program_, "unknown flag \"" + name + "\"");
            if (flag->kind == Kind::kBool) {
                if (attached)
                    badArgument(program_,
                                flag->name + " takes no value");
                *static_cast<bool *>(flag->out) = true;
                continue;
            }
            if (!attached) {
                if (i + 1 >= argc)
                    badArgument(program_, flag->name + " needs a " +
                                              flag->valueName +
                                              " value");
                value = argv[++i];
            }
            assign(*flag, value);
            continue;
        }
        if (next_positional >= positionals_.size())
            badArgument(program_,
                        "unexpected argument \"" + token + "\"");
        *positionals_[next_positional++].out = token;
    }
    if (next_positional < positionals_.size() &&
        positionals_[next_positional].required)
        badArgument(program_, "missing required " +
                                  positionals_[next_positional].name +
                                  " argument");
    return true;
}

void
Cli::printHelp(std::ostream &os) const
{
    os << program_ << " - " << title_ << "\n\nusage: " << program_;
    for (const Positional &p : positionals_)
        os << (p.required ? " " + p.name : " [" + p.name + "]");
    os << " [flags]\n";
    if (!positionals_.empty()) {
        os << "\narguments:\n";
        for (const Positional &p : positionals_)
            os << "  " << p.name << "\n      " << p.help << "\n";
    }
    os << "\nflags:\n";
    for (const Flag &f : flags_) {
        os << "  ";
        if (!f.alias.empty())
            os << f.alias << ", ";
        os << f.name;
        if (f.kind != Kind::kBool)
            os << " " << f.valueName;
        os << "\n      " << f.help << "\n";
    }
    os << "  -h, --help\n      print this summary and exit\n";
}

}  // namespace grit::harness
