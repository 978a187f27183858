//===- Format.cpp - Small string formatting utilities ---------------------===//

#include "support/Format.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace coderep;

std::string coderep::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  va_end(Args);
  return Result;
}

std::string coderep::percentChange(double New, double Old) {
  if (Old == 0.0)
    return "n/a";
  return signedPercent((New - Old) / Old * 100.0);
}

std::string coderep::signedPercent(double Value) {
  return format("%+.2f%%", Value);
}

bool coderep::parseDecimal(const char *S, uint64_t &Out) {
  if (*S < '0' || *S > '9')
    return false;
  char *End = nullptr;
  errno = 0;
  Out = std::strtoull(S, &End, 10);
  return errno == 0 && *End == '\0';
}

void TextTable::addRow(std::vector<std::string> Cells) {
  Rows.push_back({false, std::move(Cells)});
}

void TextTable::addSeparator() { Rows.push_back({true, {}}); }

std::string TextTable::render() const {
  std::vector<size_t> Widths;
  for (const Row &R : Rows) {
    if (R.Separator)
      continue;
    if (Widths.size() < R.Cells.size())
      Widths.resize(R.Cells.size(), 0);
    for (size_t I = 0; I < R.Cells.size(); ++I)
      if (R.Cells[I].size() > Widths[I])
        Widths[I] = R.Cells[I].size();
  }
  size_t Total = 0;
  for (size_t W : Widths)
    Total += W + 2;
  std::string Out;
  for (const Row &R : Rows) {
    if (R.Separator) {
      Out.append(Total, '-');
      Out.push_back('\n');
      continue;
    }
    for (size_t I = 0; I < R.Cells.size(); ++I) {
      const std::string &Cell = R.Cells[I];
      Out += Cell;
      Out.append(Widths[I] - Cell.size() + 2, ' ');
    }
    while (!Out.empty() && Out.back() == ' ')
      Out.pop_back();
    Out.push_back('\n');
  }
  return Out;
}
